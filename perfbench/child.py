"""Child-process roles of the repo benchmark.

Usage: ``python3 perfbench/child.py <role> '<json arguments>'``.  Every
role prints one JSON line.  ``ready_at`` is the system-wide monotonic
clock at the role's first timed operation, so the parent can measure
set-up as "process start to first timed operation".

Roles:
    probe    import what a suite run imports, build its config, stop.
    suite    one ``characterize_suite`` call (serial or pooled, with or
             without a store), plus the paper's subsetting on request.
    hydrate  a fresh process's ``characterize_suite`` call served from
             a filled store.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SUBSET_BUDGET_SHARE, matrix_digest, now  # noqa: E402
from layers import (  # noqa: E402
    LayerTracer,
    analysis_targets,
    compute_targets,
    store_targets,
)


def _config(args: dict):
    from repro.cluster.collection import CollectionConfig
    from repro.cluster.testbed import MeasurementConfig

    protocol = args["protocol"]
    return CollectionConfig(
        scale=protocol["scale"],
        seed=args["seed"],
        measurement=MeasurementConfig(
            slaves_measured=protocol["slaves"],
            active_cores=protocol["cores"],
            ops_per_core=protocol["ops"],
        ),
    )


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any child it reaped (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _verified_digest(matrix) -> str:
    from repro.metrics.catalog import METRIC_NAMES
    from repro.workloads.suite import SUITE

    values = matrix.values
    if tuple(matrix.workloads) != tuple(w.name for w in SUITE):
        raise ValueError("matrix rows are not the suite in order")
    if values.shape != (len(SUITE), len(METRIC_NAMES)):
        raise ValueError(f"matrix shape {values.shape} is not 32x45")
    if not all(math.isfinite(v) for v in values.ravel()):
        raise ValueError("matrix holds non-finite values")
    return matrix_digest(matrix.workloads, values)


def _subset(result) -> dict:
    """The paper's subsetting plus a budgeted selection on the matrix."""
    import repro.core.subsetting as subsetting
    import repro.subset.select as select
    from repro.core.pca import fit_pca
    from repro.subset.cost import estimate_costs

    matrix = result.matrix
    subsetting_result = subsetting.subset_workloads(matrix, seed=0)
    costs = estimate_costs(result.characterizations)
    budget = SUBSET_BUDGET_SHARE * sum(cost.seconds for cost in costs)
    points = fit_pca(matrix.values).scores
    selection = select.select_budgeted(points, matrix.workloads, costs, budget)
    if not subsetting_result.representative_subset or not selection.picks:
        raise ValueError("subsetting selected no workloads")
    if selection.cost_s > budget:
        raise ValueError("budgeted selection exceeds its budget")
    return {
        "k": subsetting_result.clustering.k,
        "representatives": list(subsetting_result.representative_subset),
        "selected": list(selection.workloads),
    }


def _store_usage(root: str) -> tuple[int, int]:
    objects = list((Path(root) / "objects").glob("*.json"))
    return len(objects), sum(path.stat().st_size for path in objects)


def role_probe(args: dict) -> dict:
    import repro.core.subsetting  # noqa: F401
    from repro.cluster.collection import characterize_suite  # noqa: F401

    _config(args)
    return {"ready_at": now()}


def role_suite(args: dict) -> dict:
    from repro.cluster.collection import characterize_suite
    from repro.cluster.pool import shutdown_pools
    from repro.workloads.suite import SUITE

    config = _config(args)
    tracer = LayerTracer() if args["trace"] else None
    targets = []
    if tracer is not None:
        # A pooled parent times only its own side: compute runs in the
        # forked workers, whose counters never come back.
        if args["workers"] <= 1:
            targets += compute_targets()
        targets += analysis_targets() + store_targets()
    landings: list[float] = []
    reply: dict = {}
    installed = tracer.installed(targets) if tracer else contextlib.nullcontext()
    try:
        with installed:
            reply["ready_at"] = now()
            start = time.perf_counter()
            result = characterize_suite(
                SUITE,
                config,
                cache_dir=args.get("store"),
                workers=args["workers"],
                on_workload=lambda _c: landings.append(time.perf_counter()),
            )
            subset = _subset(result) if args["subset"] else None
            reply["suite_s"] = time.perf_counter() - start
        reply["digest"] = _verified_digest(result.matrix)
        reply["subset"] = subset
    finally:
        shutdown_pools()
    reply["tail_s"] = landings[-1] - landings[-2] if len(landings) > 1 else 0.0
    if args.get("store"):
        reply["store_objects"], reply["store_bytes"] = _store_usage(args["store"])
    reply["peak_rss_mb"] = _peak_rss_mb()
    reply["trace"] = tracer.snapshot() if tracer else None
    return reply


def role_hydrate(args: dict) -> dict:
    from repro.cluster.collection import characterize_suite, collection_runs
    from repro.workloads.suite import SUITE

    config = _config(args)
    tracer = LayerTracer() if args["trace"] else None
    installed = (
        tracer.installed(store_targets()) if tracer else contextlib.nullcontext()
    )
    reply: dict = {}
    with installed:
        reply["ready_at"] = now()
        start = time.perf_counter()
        result = characterize_suite(SUITE, config, cache_dir=args["store"])
        reply["hydrate_s"] = time.perf_counter() - start
    if collection_runs() != 0:
        raise RuntimeError("the store did not serve the suite: it was recollected")
    reply["digest"] = _verified_digest(result.matrix)
    reply["peak_rss_mb"] = _peak_rss_mb()
    reply["trace"] = tracer.snapshot() if tracer else None
    return reply


ROLES = {"probe": role_probe, "suite": role_suite, "hydrate": role_hydrate}


def main() -> int:
    role, args = sys.argv[1], json.loads(sys.argv[2])
    try:
        reply = ROLES[role](args)
    except Exception as exc:  # reported to the parent as a failed operation
        traceback.print_exc()
        reply = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
