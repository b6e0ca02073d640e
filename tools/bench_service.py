"""Benchmark the characterization service's request throughput.

Usage::

    python tools/bench_service.py                      # in-process server
    python tools/bench_service.py --serve-workers 4    # pre-fork fleet
    python tools/bench_service.py --smoke --check      # CI smoke + gates

Starts a real service — a single in-process ``ThreadingHTTPServer``, or
with ``--serve-workers N`` a pre-fork :class:`Supervisor` fleet sharing
one listen socket — warms the store by submitting every workload as a
non-blocking job and following each one's ``/jobs/<id>/events`` stream,
then measures closed-loop throughput:

1. **Warm full-body throughput** — ``--clients`` concurrent clients,
   each with ONE persistent HTTP/1.1 keep-alive connection, issuing its
   next ``GET`` the moment the previous response lands.  No
   per-request TCP handshake: this measures the serving path, not the
   loopback connect rate.
2. **Conditional throughput** — the same loop with ``If-None-Match``,
   where the server answers 304 with no body.

``--check`` enforces the scaling gates: zero duplicate
characterizations in the fleet's shared run log (always), and the
warm-matrix throughput floor where the host has the cores to back it
(>= 5k req/s with 4 workers on >= 4 CPUs, >= 2k with 2 workers on
>= 2 CPUs — skipped, loudly, on smaller hosts).

Results land in ``BENCH_service.json`` so future PRs can track the
serving-path trajectory alongside ``BENCH_speed.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.collection import CollectionConfig  # noqa: E402
from repro.cluster.testbed import MeasurementConfig  # noqa: E402
from repro.obs.stats import Stopwatch, summarize  # noqa: E402
from repro.service.claims import ClaimRegistry  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceConfig, serve  # noqa: E402
from repro.service.supervisor import Supervisor  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402

#: Single-process floor (the original tracked target).
TARGET_RPS = 200.0


def _throughput_target(serve_workers: int, cpus: int) -> float | None:
    """The warm-matrix floor this host is expected to clear, or ``None``
    when it lacks the cores to make the gate meaningful."""
    if serve_workers >= 4 and cpus >= 4:
        return 5000.0
    if serve_workers >= 2 and cpus >= 2:
        return 2000.0
    if serve_workers == 1:
        return TARGET_RPS
    return None


def _measure_keepalive(
    host: str,
    port: int,
    path: str,
    clients: int,
    requests: int,
    conditional: bool,
) -> dict:
    """Closed-loop throughput over persistent connections.

    ``clients`` threads each hold one keep-alive connection and split
    ``requests`` GETs; every thread fires its next request as soon as
    the previous response is fully read (closed loop — offered load
    tracks service rate, never overruns it).
    """
    per_client = max(1, requests // clients)
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()
    latencies: list[float] = []
    counts: list[int] = []
    errors: list[str] = []

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        headers = {}
        try:
            # Prime: first request establishes the connection (and the
            # ETag when measuring the conditional path).
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"prime GET {path} -> {response.status}")
            if conditional:
                etag = response.headers.get("ETag")
                if not etag:
                    raise RuntimeError(f"no ETag on {path}; cannot do 304s")
                headers["If-None-Match"] = etag
            barrier.wait()
            mine: list[float] = []
            expected = 304 if conditional else 200
            for _ in range(per_client):
                with Stopwatch() as request_sw:
                    conn.request("GET", path, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                if response.status != expected:
                    raise RuntimeError(
                        f"GET {path} -> {response.status}, wanted {expected}"
                    )
                mine.append(request_sw.seconds)
            with lock:
                latencies.extend(mine)
                counts.append(len(mine))
        except Exception as exc:  # noqa: BLE001 - reported to the gate
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
            try:
                barrier.wait(timeout=1.0)
            except threading.BrokenBarrierError:
                pass
        finally:
            conn.close()

    pool = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in pool:
        thread.start()
    barrier.wait()
    with Stopwatch() as sw:
        for thread in pool:
            thread.join()
    if errors:
        raise RuntimeError(f"load clients failed: {errors[:3]}")
    total = sum(counts)
    return {
        "path": path,
        "conditional": conditional,
        "clients": clients,
        "requests": total,
        "seconds": round(sw.seconds, 4),
        "req_per_s": round(total / sw.seconds, 1),
        "latency": summarize(latencies),
    }


def _warm(base_url: str, workloads) -> float:
    """Collect every workload (non-blocking submit + SSE follow) and
    assemble the suite entry; returns the cold wall time."""
    client = ServiceClient(base_url, correlation_id="bench-service-warm")
    with Stopwatch() as cold_sw:
        job_ids = []
        for workload in workloads:
            snapshot = client.characterize(workload.name, wait=False)
            job_id = snapshot.get("id")
            if job_id:  # 202 job snapshot (cold); cached results have none
                job_ids.append(job_id)
        for job_id in job_ids:
            final = client.wait_for_job(job_id, timeout=1800.0)
            if final["state"] != "done":
                raise RuntimeError(f"warm job {job_id}: {final['state']}")
        client.matrix()  # assemble the suite entry from the store
    print(f"  cold collection ({len(job_ids)} jobs streamed): "
          f"{cold_sw.seconds:.2f}s")
    return cold_sw.seconds


def run_benchmark(
    smoke: bool,
    clients: int,
    requests: int,
    collection_workers: int,
    serve_workers: int,
) -> dict:
    n_workloads = 2 if smoke else 8
    workloads = SUITE[:n_workloads]
    config = ServiceConfig(
        collection=CollectionConfig(
            scale=0.3 if smoke else 0.5,
            seed=42,
            measurement=MeasurementConfig(
                slaves_measured=1,
                active_cores=2 if smoke else 3,
                ops_per_core=1200 if smoke else 4000,
            ),
        ),
        workloads=workloads,
        workers=min(collection_workers, n_workloads),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as cache:
        os.environ.pop("REPRO_CACHE_DIR", None)  # isolate the measurement
        config = dataclasses.replace(config, cache_dir=cache)
        supervisor = None
        server = None
        if serve_workers > 1:
            # Fork BEFORE any client threads exist: pre-fork fleets and
            # threaded parents do not mix.
            supervisor = Supervisor(config, port=0, workers=serve_workers)
            host, port = supervisor.start()
        else:
            server = serve(config, port=0)
            host, port = server.server_address[:2]
            threading.Thread(target=server.serve_forever, daemon=True).start()
        base_url = f"http://{host}:{port}"
        try:
            print(
                f"service on {base_url}, {n_workloads} workloads, "
                f"{serve_workers} server worker(s); warming ..."
            )
            cold_s = _warm(base_url, workloads)

            measurements = []
            for path, conditional in (
                ("/suite/matrix", False),
                ("/suite/matrix", True),
                (f"/characterize/{workloads[0].name}", False),
            ):
                result = _measure_keepalive(
                    host, port, path, clients, requests, conditional
                )
                kind = "304 conditional" if conditional else "200 full-body"
                print(f"  warm {path} ({kind}): {result['req_per_s']} req/s")
                measurements.append(result)
            duplicates = ClaimRegistry(cache).duplicate_runs()
            runs = len(ClaimRegistry(cache).runs())
        finally:
            if supervisor is not None:
                supervisor.shutdown()
            if server is not None:
                server.shutdown()
                server.service.close()

    warm_matrix = measurements[0]["req_per_s"]
    cpus = os.cpu_count() or 1
    target = _throughput_target(serve_workers, cpus)
    return {
        "smoke": smoke,
        "cpu_count": cpus,
        "n_workloads": n_workloads,
        "serve_workers": serve_workers,
        "clients": clients,
        "cold_matrix_seconds": round(cold_s, 3),
        "warm_matrix_req_per_s": warm_matrix,
        "target_req_per_s": target,
        "meets_target": target is None or warm_matrix >= target,
        "collection_runs": runs,
        "duplicate_collections": duplicates,
        "measurements": measurements,
    }


def check(results: dict) -> list[str]:
    """The --check gates; returns failure messages (empty = pass)."""
    failures = []
    if results["duplicate_collections"]:
        failures.append(
            "duplicate characterizations ran: "
            f"{results['duplicate_collections']} — cross-process "
            "single-flight is broken"
        )
    target = results["target_req_per_s"]
    if target is None:
        print(
            f"  [check] throughput gate skipped: "
            f"{results['cpu_count']} CPU(s) cannot back "
            f"{results['serve_workers']} server workers"
        )
    elif results["warm_matrix_req_per_s"] < target:
        failures.append(
            f"warm /suite/matrix {results['warm_matrix_req_per_s']} req/s "
            f"below the {target} req/s floor for "
            f"{results['serve_workers']} worker(s)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast mode: 2 workloads, reduced protocol — asserts the "
        "benchmark completes and emits JSON",
    )
    parser.add_argument(
        "--clients",
        "--threads",
        dest="clients",
        type=int,
        default=8,
        help="concurrent keep-alive load clients",
    )
    parser.add_argument(
        "--requests", type=int, default=2000, help="total requests per measurement"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="collection worker processes (fan-out within one collection)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork server processes sharing the listen socket "
        "(1 = in-process ThreadingHTTPServer)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if a scaling gate fails (zero duplicate "
        "characterizations; warm-matrix floor when the host has cores)",
    )
    parser.add_argument(
        "-o",
        "--out",
        default=str(REPO_ROOT / "BENCH_service.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    requests = 400 if args.smoke and args.requests == 2000 else args.requests
    results = run_benchmark(
        smoke=args.smoke,
        clients=args.clients,
        requests=requests,
        collection_workers=args.workers,
        serve_workers=args.serve_workers,
    )
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    if args.check:
        failures = check(results)
        for failure in failures:
            print(f"  [check] FAIL: {failure}")
        if failures:
            return 1
        print("  [check] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
