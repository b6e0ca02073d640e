"""Shared constants and helpers of the repo benchmark (see README.md).

Nothing here imports the program: the orchestrator, the child roles and
the smoke test all read these, and the program is only imported once
``src/`` is known to exist.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Directory of the benchmark's own files, and the checkout it lives in.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, temp files) lives under here.
WORK = ROOT / ".perfbench"

WORKLOADS = ("suite-serial", "suite-pool", "serve-warm")

#: Collection protocol of every workload: the one ``repro serve`` and
#: the CLI use by default (scale 0.5, 1 measured slave, 3 active cores,
#: 4000 sampled ops per core).
PROTOCOL = {"scale": 0.5, "slaves": 1, "cores": 3, "ops": 4000}
#: A tiny protocol for the benchmark's own smoke test.
SMOKE_PROTOCOL = {"scale": 0.1, "slaves": 1, "cores": 1, "ops": 300}
#: ``serve-warm`` serves the store ``repro serve`` fills at its default
#: collection seed; its workload seed only drives the request mix.
SERVE_COLLECTION_SEED = 42
#: Workers for the pooled collections (the box has 2 usable CPUs).
POOL_WORKERS = 2
#: Set-up samples per run (``suite-*``: iteration children plus
#: import-only probes; ``serve-warm``: full fill + boot + warm pass).
SUITE_SETUPS = 5
SERVE_SETUPS = 2
#: Closed-loop connections of ``serve-warm``.
CONNECTIONS = 2
#: Budget of the ``suite-serial`` budgeted selection, as a share of the
#: whole pool's cost.
SUBSET_BUDGET_SHARE = 0.25
#: Per-child wall-clock limit; a run must end well inside 180 s.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics (``--trace 0``): name -> unit.
#: ``serve-warm``'s throughput and p99 latency are measured and printed
#: on every run but not bounded: on the 2-vCPU measuring box, host stalls
#: of 10-30 ms hit up to 15% of requests in some periods, so their spread
#: over ten runs (0.15-0.47 and 0.44-1.87 of the median) exceeds any
#: bound a regression gate may use (see README.md).
END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers timed from outside (each reports ``.self_s`` and ``.calls``).
TIMED_LAYERS = (
    "datagen",
    "stacks",
    "stacks.instrument",
    "arch.batch",
    "arch.core_model.prewarm",
    "arch.core_model.run_compact",
    "arch.processor",
    "perf",
    "metrics",
    "core",
    "subset",
    "cluster.pool.fork",
    "service.store.put",
    "service.store.adopt",
    "service.store.get",
    "service.store.get_raw",
    "service.store.etag",
    "service.server.handle_get",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    f"{layer}.{part}": unit
    for layer in TIMED_LAYERS
    for part, unit in (("self_s", "s"), ("calls", "count"))
}
PER_LAYER.update(
    {
        "stacks.records": "count",
        "stacks.bytes_in": "bytes",
        "stacks.instrument.phases": "count",
        "arch.batch.samples": "count",
        "arch.core_model.run_compact.ops": "count",
        "arch.core_model.run_compact.ops_per_s": "1/s",
        "cluster.collection.self_s": "s",
        "cluster.pool.tail_s": "s",
        "cluster.pool.speedup_vs_serial": "ratio",
        "service.store.objects": "count",
        "service.store.bytes": "bytes",
        "service.store.hydrate_s": "s",
        "service.http.self_s": "s",
        "service.server.cache_hit_ratio": "ratio",
        "service.server.not_modified_ratio": "ratio",
        "trace.suite_s": "s",
        "trace_overhead_pct": "%",
    }
)

#: Compute-layer shares measured at the ROADMAP re-anchor (serial full
#: suite at the default protocol, wrapper timers), printed next to the
#: traced shares so a missed or changed layer is visible.
ROADMAP_SHARES = {
    "arch.core_model.run_compact": 52.0,
    "arch.core_model.prewarm": 17.0,
    "stacks+datagen": 14.0,
    "arch.batch": 11.0,
    "perf": 1.5,
}


def now() -> float:
    """A clock comparable across processes (system-wide monotonic)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``, capped at p99.  Fewer than 11 samples have
    no such percentile: the maximum is returned as ``(100, max)``."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, float(ordered[-1])
    pct = min(99, (100 * (n - 10)) // n)
    # Nearest-rank: the smallest value with pct% of samples at or below.
    rank = max(1, -(-pct * n // 100))
    return float(pct), float(ordered[rank - 1])


def matrix_digest(workloads, values) -> str:
    """sha256 of a metric matrix: row labels plus the float64 values."""
    import numpy as np

    data = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    digest = hashlib.sha256("|".join(workloads).encode("utf-8"))
    digest.update(str(data.shape).encode("ascii"))
    digest.update(data.tobytes())
    return digest.hexdigest()


def expected() -> dict:
    """Seeds and recorded matrix digests (``expected.json``)."""
    return json.loads((HERE / "expected.json").read_text())


def child_env() -> dict:
    """Environment of every process the benchmark starts: the program
    on the path, no ambient store (``TMPDIR`` comes from the run)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CACHE_DIR", None)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py`` with ``args``; its last stdout line is JSON.

    Returns the decoded reply plus ``spawned_at`` (the parent's clock
    just before the spawn) and ``exit_code``.  A child that crashes,
    times out or prints no reply yields ``{"error": ...}``.
    """
    spawned_at = now()
    # Own session, so a timed-out child is killed with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"child {args[0]} timed out after {timeout:.0f}s",
                "spawned_at": spawned_at}
    lines = stdout.strip().splitlines()
    try:
        reply = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail_err = stderr.strip().splitlines()[-5:]
        reply = {"error": f"child {args[0]} exited {proc.returncode} "
                          f"without a reply: {' | '.join(tail_err)}"}
    reply["spawned_at"] = spawned_at
    reply["exit_code"] = proc.returncode
    if proc.returncode != 0 and not reply.get("error"):
        reply["error"] = f"child {args[0]} exited {proc.returncode}"
    return reply


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What a result was measured on."""
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }
