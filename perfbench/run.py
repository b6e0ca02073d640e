"""The repo benchmark: one command, three workloads, a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-serial --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --smoke                 # tiny protocol, two workloads

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see README.md).  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
correctness check passed, 1 when one failed, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import load  # noqa: E402
from common import (  # noqa: E402
    CONNECTIONS,
    END_TO_END,
    PER_LAYER,
    POOL_WORKERS,
    PROTOCOL,
    ROADMAP_SHARES,
    SERVE_COLLECTION_SEED,
    SERVE_SETUPS,
    SMOKE_PROTOCOL,
    SRC,
    SUITE_SETUPS,
    WORK,
    WORKLOADS,
    child_env,
    environment,
    expected,
    matrix_digest,
    median,
    now,
    run_child,
    tail,
)

N_WORKLOADS = 32


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    protocol: dict
    smoke: bool
    run_dir: Path
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.run_dir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def child_args(self, **extra) -> str:
        args = {"protocol": self.protocol, "seed": self.seed, "trace": False,
                "workers": 1, "subset": False}
        args.update(extra)
        return json.dumps({k: str(v) if isinstance(v, Path) else v
                           for k, v in args.items()})

    def expected_digest(self, seed: int) -> str | None:
        if self.smoke:
            return None
        return expected()["matrix_sha256"].get(str(seed))


@dataclass
class Result:
    workload: str
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def op(self, problem: str = "") -> None:
        """Count one attempted operation; a non-empty problem fails it."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def abort(self, problem: str) -> None:
        """A collection raised: the whole run counts as failed."""
        self.problems.append(problem)
        self.attempted = max(1, self.attempted)
        self.failed = self.attempted

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _digest_problem(ctx: Context, reply: dict, what: str,
                    seed: int | None = None, against: str | None = None) -> str:
    """Why a reply's matrix is wrong ("" when it is right): it must equal
    another run's and, at a seed with a recorded digest, the recorded one."""
    digest = reply.get("digest")
    recorded = ctx.expected_digest(ctx.seed if seed is None else seed)
    if against is not None and digest != against:
        return f"{what}: matrix {digest} differs from {against}"
    if recorded is not None and digest != recorded:
        return f"{what}: matrix {digest} is not the recorded {recorded}"
    return ""


# -- suite-serial / suite-pool ---------------------------------------------


def _suite_untraced(ctx: Context, pooled: bool) -> Result:
    res = Result(ctx.workload)
    setups, suites, hydrates, peaks = [], [], [], []
    start = now()
    while not suites or now() - start < ctx.seconds:
        store = ctx.fresh_dir("store") if pooled else None
        reply = run_child(["suite", ctx.child_args(
            workers=POOL_WORKERS if pooled else 1, store=store,
            subset=not pooled)])
        if reply.get("error"):
            res.abort(f"collection failed: {reply['error']}")
            return res
        res.op(_digest_problem(ctx, reply, "collection"))
        setups.append(reply["ready_at"] - reply["spawned_at"])
        suites.append(reply["suite_s"])
        peaks.append(reply["peak_rss_mb"])
        if pooled:
            hydrate = run_child(["hydrate", ctx.child_args(store=store)])
            if hydrate.get("error"):
                res.op(f"hydrate failed: {hydrate['error']}")
            else:
                res.op(_digest_problem(ctx, hydrate, "hydrate", against=reply["digest"]))
                hydrates.append(hydrate["hydrate_s"])
                peaks.append(hydrate["peak_rss_mb"])
            shutil.rmtree(store, ignore_errors=True)
    while len(setups) < SUITE_SETUPS:
        probe = run_child(["probe", ctx.child_args()])
        if probe.get("error"):
            res.abort(f"set-up probe failed: {probe['error']}")
            return res
        setups.append(probe["ready_at"] - probe["spawned_at"])
    res.metrics = {
        "setup_s": median(setups),
        "suite_s": median(suites),
        "latency_p50_ms": 1e3 * median(suites),
        "peak_rss_mb": max(peaks),
    }
    res.samples = {"setup_s": len(setups), "suite_s": len(suites),
                   "latency_p50_ms": len(suites), "peak_rss_mb": len(peaks)}
    res.notes.append(
        "operation = one full-suite collection"
        + ("" if pooled else " plus subsetting")
        + f"; {N_WORKLOADS * len(suites) / sum(suites):.4f} workloads/s; "
        f"slowest of {len(suites)}: {max(suites):.4f} s"
    )
    if hydrates:
        res.notes.append(f"hydrate_s median {median(hydrates):.4f} s "
                         f"over {len(hydrates)} fresh processes")
    return res


def _shares(res: Result, snap: dict, wall_s: float) -> None:
    """Print each compute layer's share next to the ROADMAP split."""
    selfs = snap["self_s"]
    rows = [(name, selfs.get(name, 0.0)) for name in (
        "arch.core_model.run_compact", "arch.core_model.prewarm",
        "arch.batch", "arch.processor", "perf", "stacks.instrument", "metrics",
        "core", "subset")]
    rows.insert(2, ("stacks+datagen", selfs.get("stacks", 0.0) + selfs.get("datagen", 0.0)))
    rows.append(("cluster.collection", layers.collection_self_s(snap, wall_s)))
    res.notes.append(f"layer shares of the traced suite_s ({wall_s:.3f} s):")
    for name, value in rows:
        roadmap = ROADMAP_SHARES.get(name)
        ref = f"(ROADMAP {roadmap:g}%)" if roadmap is not None else ""
        res.notes.append(f"  {name:30s} {value:9.4f} s {100 * value / wall_s:6.2f}% {ref}")


def _suite_serial_traced(ctx: Context) -> Result:
    res = Result(ctx.workload)
    plain = run_child(["suite", ctx.child_args(subset=True)])
    traced = run_child(["suite", ctx.child_args(subset=True, trace=True)])
    for what, reply in (("untraced", plain), ("traced", traced)):
        if reply.get("error"):
            res.abort(f"{what} collection failed: {reply['error']}")
            return res
    res.op(_digest_problem(ctx, plain, "untraced collection"))
    res.op(_digest_problem(ctx, traced, "traced collection", against=plain["digest"]))
    res.op("" if traced["subset"] == plain["subset"]
           else "traced subsetting differs from untraced")
    snap, wall = traced["trace"], traced["suite_s"]
    res.problems += layers.coverage_problems(snap, wall)
    _shares(res, snap, wall)
    res.metrics = layers.per_layer_metrics(snap, {
        "cluster.collection.self_s": layers.collection_self_s(snap, wall),
        "cluster.pool.tail_s": traced["tail_s"],
        "trace.suite_s": wall,
        "trace_overhead_pct": 100.0 * (wall / plain["suite_s"] - 1.0),
    })
    return res


def _suite_pool_traced(ctx: Context) -> Result:
    """Parent- and hydrate-side layers of a pooled collection; the
    compute layers (which run in the forked workers) and the serial
    base of the speed-up come from a traced serial collection."""
    res = Result(ctx.workload)
    stores = [ctx.fresh_dir("store"), ctx.fresh_dir("store")]
    plain = run_child(["suite", ctx.child_args(workers=POOL_WORKERS, store=stores[0])])
    pooled = run_child(["suite", ctx.child_args(workers=POOL_WORKERS, store=stores[1], trace=True)])
    hydrate = run_child(["hydrate", ctx.child_args(store=stores[1], trace=True)])
    serial = run_child(["suite", ctx.child_args(trace=True)])
    for what, reply in (("untraced pool", plain), ("traced pool", pooled),
                        ("traced hydrate", hydrate), ("traced serial", serial)):
        if reply.get("error"):
            res.abort(f"{what} failed: {reply['error']}")
            return res
        res.op(_digest_problem(ctx, reply, what, against=plain.get("digest")))
    wall = pooled["suite_s"]
    res.problems += layers.coverage_problems(pooled["trace"], wall)
    res.problems += layers.coverage_problems(serial["trace"], serial["suite_s"])
    _shares(res, serial["trace"], serial["suite_s"])
    snap = layers.merge(serial["trace"], pooled["trace"], hydrate["trace"])
    res.metrics = layers.per_layer_metrics(snap, {
        "cluster.collection.self_s": layers.collection_self_s(pooled["trace"], wall),
        "cluster.pool.tail_s": pooled["tail_s"],
        "cluster.pool.speedup_vs_serial": serial["suite_s"] / wall,
        "service.store.objects": pooled["store_objects"],
        "service.store.bytes": pooled["store_bytes"],
        "service.store.hydrate_s": hydrate["hydrate_s"],
        "trace.suite_s": wall,
        "trace_overhead_pct": 100.0 * (wall / plain["suite_s"] - 1.0),
    })
    res.notes.append(
        f"speed-up vs serial: {serial['suite_s']:.3f} s serial / {wall:.3f} s "
        f"pooled ({POOL_WORKERS} workers), both traced, seed {ctx.seed}"
    )
    return res


# -- serve-warm -------------------------------------------------------------


def _serve_config(ctx: Context):
    from repro.cluster.collection import CollectionConfig
    from repro.cluster.testbed import MeasurementConfig

    p = ctx.protocol
    return CollectionConfig(
        scale=p["scale"], seed=SERVE_COLLECTION_SEED,
        measurement=MeasurementConfig(slaves_measured=p["slaves"],
                                      active_cores=p["cores"], ops_per_core=p["ops"]),
    )


class Server:
    """A ``repro serve`` subprocess on a filled store."""

    def __init__(self, ctx: Context, store: Path) -> None:
        p = ctx.protocol
        self.log = store.parent / f"{store.name}.serve.log"
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(store), "--scale", str(p["scale"]),
                 "--seed", str(SERVE_COLLECTION_SEED), "--slaves", str(p["slaves"]),
                 "--cores", str(p["cores"]), "--ops", str(p["ops"])],
                stdout=out, stderr=subprocess.STDOUT, env=child_env(),
            )
        self.host, self.port = "127.0.0.1", None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the banner names the port and /readyz says 200."""
        import http.client

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}")
            if self.port is None:
                for line in self.log.read_text(errors="replace").splitlines():
                    if " on http://" in line:
                        self.port = int(line.rsplit(":", 1)[1].strip().strip("/"))
            if self.port is not None:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                try:
                    status, _, _ = load.fetch(conn, "/readyz")
                    if status == 200:
                        return
                except OSError:
                    pass
                finally:
                    conn.close()
            time.sleep(0.02)
        raise RuntimeError("repro serve did not become ready")

    def stop(self) -> float:
        """SIGTERM, wait, and return the server's peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        while True:
            pid, _, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = 0
                return usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                self.proc.kill()
                _, _, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = -9
                return usage.ru_maxrss / 1024.0
            time.sleep(0.02)


def _fill(ctx: Context, res: Result, store: Path) -> dict | None:
    """Fill ``store`` the way a CLI user does: a pooled collection at
    the serving protocol and seed."""
    reply = run_child(["suite", ctx.child_args(
        workers=POOL_WORKERS, store=store, seed=SERVE_COLLECTION_SEED)])
    if reply.get("error"):
        res.abort(f"store fill failed: {reply['error']}")
        return None
    res.op(_digest_problem(ctx, reply, "store fill", seed=SERVE_COLLECTION_SEED))
    return reply


def _serve_warm(ctx: Context) -> Result:
    from repro.workloads.suite import SUITE

    res = Result(ctx.workload)
    config = _serve_config(ctx)
    names = [w.name for w in SUITE]
    setups, fills = [], []
    server = None
    try:
        for i in range(SERVE_SETUPS):
            store = ctx.fresh_dir("store")
            fill = _fill(ctx, res, store)
            if fill is None:
                return res
            fills.append(fill["suite_s"])
            server = Server(ctx, store)
            server.wait_ready()
            expect, sent, problems = load.warm(server.host, server.port, str(store), config, names)
            res.attempted += sent
            if problems:
                res.problems += problems
                res.abort("the warm pass found wrong responses")
                return res
            setups.append(now() - fill["spawned_at"])
            if i < SERVE_SETUPS - 1:
                server.stop()
                server = None
                shutil.rmtree(store, ignore_errors=True)
        run = load.closed_loop(server.host, server.port, ctx.seed, ctx.seconds,
                               expect, CONNECTIONS)
    finally:
        peak = server.stop() if server is not None else 0.0
    res.attempted += run["attempted"]
    res.failed += run["failed"]
    res.problems += run["errors"]
    latencies = run["latencies"]
    pct, worst = tail(latencies)
    res.metrics = {
        "setup_s": median(setups),
        "suite_s": median(fills),
        "latency_p50_ms": 1e3 * median(latencies),
        "peak_rss_mb": peak,
    }
    res.samples = {"setup_s": len(setups), "suite_s": len(fills),
                   "latency_p50_ms": len(latencies), "peak_rss_mb": 1}
    res.notes.append(
        f"{len(latencies)} requests on {CONNECTIONS} keep-alive connections in "
        f"{run['elapsed_s']:.2f} s: req_per_s {len(latencies) / run['elapsed_s']:.4f} 1/s, "
        f"latency_p{pct:g}_ms {1e3 * worst:.4f} ms (printed, not bounded); "
        f"{run['not_modified']}/{run['conditional']} conditional requests got 304; "
        f"suite_s is the pooled store fill"
    )
    return res


def _serve_warm_traced(ctx: Context) -> Result:
    """In-process server so ``handle_get`` and the store reads can be
    wrapped: a traced serial fill, an untraced then a traced timed phase."""
    from repro.cluster.collection import characterize_suite
    from repro.service.server import ServiceConfig, serve
    from repro.workloads.suite import SUITE

    res = Result(ctx.workload)
    config = _serve_config(ctx)
    store = ctx.fresh_dir("store")
    fill_tracer, warm_tracer, timed_tracer = (layers.LayerTracer() for _ in range(3))
    landings = []
    targets = layers.compute_targets() + layers.store_targets()
    try:
        with fill_tracer.installed(targets):
            start = time.perf_counter()
            suite = characterize_suite(SUITE, config, cache_dir=store, workers=1,
                                       on_workload=lambda _c: landings.append(time.perf_counter()))
            fill_s = time.perf_counter() - start
    except Exception as exc:  # a raised collection fails the run, not the process
        res.abort(f"store fill failed: {type(exc).__name__}: {exc}")
        return res
    digest = matrix_digest(suite.matrix.workloads, suite.matrix.values)
    res.op(_digest_problem(ctx, {"digest": digest}, "traced store fill",
                           seed=SERVE_COLLECTION_SEED))
    server = serve(ServiceConfig(collection=config, cache_dir=str(store)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with warm_tracer.installed(layers.analysis_targets()):
            expect, sent, problems = load.warm(host, port, str(store), config,
                                               [w.name for w in SUITE])
        res.attempted += sent
        if problems:
            res.problems += problems
            res.abort("the warm pass found wrong responses")
            return res
        plain = load.closed_loop(host, port, ctx.seed, ctx.seconds, expect, CONNECTIONS)
        timed_targets = layers.server_targets() + layers.store_read_targets()
        with timed_tracer.installed(timed_targets):
            run = load.closed_loop(host, port, ctx.seed, ctx.seconds, expect, CONNECTIONS)
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=10)
    for loop in (plain, run):
        res.attempted += loop["attempted"]
        res.failed += loop["failed"]
        res.problems += loop["errors"]
    fill_snap = fill_tracer.snapshot()
    res.problems += layers.coverage_problems(fill_snap, fill_s)
    _shares(res, fill_snap, fill_s)
    timed = timed_tracer.snapshot()
    snap = layers.merge(fill_snap, warm_tracer.snapshot(), timed)
    handle_total = timed["total_s"].get("service.server.handle_get", 0.0)
    get_raw_calls = timed["calls"].get("service.store.get_raw", 0)
    plain_rate = len(plain["latencies"]) / plain["elapsed_s"]
    traced_rate = len(run["latencies"]) / run["elapsed_s"]
    objects = list((store / "objects").glob("*.json"))
    res.metrics = layers.per_layer_metrics(snap, {
        "cluster.collection.self_s": layers.collection_self_s(fill_snap, fill_s),
        "cluster.pool.tail_s": landings[-1] - landings[-2],
        "service.store.objects": len(objects),
        "service.store.bytes": sum(p.stat().st_size for p in objects),
        "service.http.self_s": sum(run["latencies"]) - handle_total,
        "service.server.cache_hit_ratio": 1.0 - get_raw_calls / max(1, run["characterize"]),
        "service.server.not_modified_ratio": run["not_modified"] / max(1, run["conditional"]),
        "trace.suite_s": fill_s,
        "trace_overhead_pct": 100.0 * (plain_rate / traced_rate - 1.0),
    })
    res.notes.append(
        f"in-process server: {plain_rate:.1f} req/s untraced, {traced_rate:.1f} req/s "
        f"traced; layers of the traced serial store fill above"
    )
    return res


RUNNERS = {
    ("suite-serial", 0): lambda ctx: _suite_untraced(ctx, pooled=False),
    ("suite-pool", 0): lambda ctx: _suite_untraced(ctx, pooled=True),
    ("serve-warm", 0): _serve_warm,
    ("suite-serial", 1): _suite_serial_traced,
    ("suite-pool", 1): _suite_pool_traced,
    ("serve-warm", 1): _serve_warm_traced,
}


def run_workload(ctx: Context, trace: int) -> Result:
    try:
        return RUNNERS[(ctx.workload, trace)](ctx)
    except Exception as exc:  # one broken workload must not stop the others
        res = Result(ctx.workload)
        res.abort(f"{type(exc).__name__}: {exc}")
        return res


def _report(res: Result, trace: int, env: dict) -> dict:
    catalog = PER_LAYER if trace else END_TO_END
    missing = sorted(set(catalog) - set(res.metrics))
    if missing and res.correct:
        res.problems.append(f"metrics not measured: {missing}")
    print(f"== {res.workload} (trace {trace}) env {json.dumps(env, sort_keys=True)}")
    for name, unit in catalog.items():
        if name in res.metrics:
            n = res.samples.get(name)
            print(f"  {name:42s} {res.metrics[name]:16.6f} {unit:6s}"
                  + (f" n={n}" if n else ""))
    error_rate = res.failed / max(1, res.attempted)
    print(f"  {'error_rate':42s} {error_rate:16.6f} ratio  "
          f"({res.failed} failed of {res.attempted} attempted)")
    for note in res.notes:
        print(f"  {note}")
    for problem in res.problems[:20]:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": res.correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed if res.attempted else 1,
        "metrics": {name: {"value": res.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in catalog.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the one in expected.json)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny protocol, suite-serial and serve-warm, short phases")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_CACHE_DIR", None)

    seed = args.seed if args.seed is not None else expected()["default_seed"]
    if args.smoke:
        workloads = ("suite-serial", "serve-warm")
    elif args.workload == "all":
        workloads = WORKLOADS
    else:
        workloads = (args.workload,)
    env = environment()
    run_dir = WORK / f"run-{os.getpid()}"
    # Temp files of this process and every child stay inside the checkout.
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    reports = {}
    try:
        for workload in workloads:
            ctx = Context(workload, seed, args.seconds,
                          SMOKE_PROTOCOL if args.smoke else PROTOCOL,
                          args.smoke, run_dir / workload)
            ctx.run_dir.mkdir(parents=True)
            reports[workload] = _report(run_workload(ctx, args.trace), args.trace, env)
            if len(workloads) > 1:
                print(json.dumps({"workload": workload, **reports[workload]}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(workloads) == 1:
        final = reports[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}/{name}": m for w, r in reports.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
