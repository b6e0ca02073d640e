"""Benchmark the budget-aware subsetting engine against baselines.

Usage::

    python tools/bench_subset.py                   # full suite, writes BENCH_subset.json
    python tools/bench_subset.py --smoke --check   # reduced suite, exit 1 on a failed gate

Characterizes a suite with timelines enabled (so every workload carries a
*measured* simulated-runtime cost), then sweeps budgets from 10 % to 80 %
of the total pool cost and, at each budget, compares the greedy
facility-location selection (``repro.subset``) against:

1. **Random same-cost subsets** — 20 shuffled affordable fills per budget.
   The gate requires the budgeted selection's PC-space coverage to be at
   least the best random subset's at *every* budget.
2. **Farthest-from-centroid at equal cost** — the paper's Table V policy
   (largest cluster first) truncated to the same budget.  The gate
   requires match-or-beat coverage.
3. **Determinism** — the whole sweep is recomputed from scratch and must
   be bit-identical.

Results land in ``BENCH_subset.json`` alongside the other BENCH files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.collection import CollectionConfig, characterize_suite  # noqa: E402
from repro.cluster.testbed import MeasurementConfig  # noqa: E402
from repro.core.pca import fit_pca  # noqa: E402
from repro.core.subsetting import subset_workloads  # noqa: E402
from repro.obs.stats import Stopwatch  # noqa: E402
from repro.obs.timeline import TimelineConfig  # noqa: E402
from repro.subset import estimate_costs, evaluate_sweep  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402


def ffc_order(matrix) -> tuple[str, ...]:
    """Table V farthest-from-centroid representatives, largest cluster first."""
    result = subset_workloads(matrix, seed=0)
    reps = sorted(
        result.farthest,
        key=lambda rep: (-rep.cluster_size, rep.workload),
    )
    return tuple(rep.workload for rep in reps)


def run_benchmark(smoke: bool) -> dict:
    workloads = SUITE[:10] if smoke else SUITE
    config = CollectionConfig(
        scale=0.2 if smoke else 0.3,
        seed=7,
        measurement=MeasurementConfig(
            slaves_measured=1,
            active_cores=2,
            ops_per_core=1200 if smoke else 2000,
        ),
        timeline=TimelineConfig(interval_ms=2.0),
    )
    print(f"characterizing {len(workloads)} workloads (scale {config.scale}) ...")
    with Stopwatch() as collect_sw:
        suite = characterize_suite(workloads, config)
    costs = estimate_costs(suite.characterizations)
    points = fit_pca(suite.matrix.values).scores

    with Stopwatch() as sweep_sw:
        sweep = evaluate_sweep(
            points,
            suite.matrix.workloads,
            costs,
            n_random=20,
            seed=0,
            ffc_order=ffc_order(suite.matrix),
        )

    for row in sweep["budgets"]:
        if row.get("skipped"):
            print(f"  {row['fraction']:.0%}: skipped (budget below cheapest workload)")
            continue
        print(
            f"  {row['fraction']:.0%} budget: greedy {row['coverage']:.4f}  "
            f"random-max {row['random_max']:.4f}  "
            f"ffc {row['ffc_coverage']:.4f}  "
            f"({row['n_selected']} workloads)"
        )

    measured = sum(1 for cost in costs if cost.measured)
    return {
        "smoke_mode": smoke,
        "cpu_count": os.cpu_count() or 1,
        "n_workloads": len(workloads),
        "scale": config.scale,
        "seed": config.seed,
        "collect_seconds": round(collect_sw.seconds, 3),
        "sweep_seconds": round(sweep_sw.seconds, 3),
        "measured_costs": measured,
        "costs": [cost.to_dict() for cost in costs],
        "sweep": sweep,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced suite (10 workloads at a smaller scale)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the budgeted selection dominates every "
        "random baseline, matches-or-beats farthest-from-centroid, and "
        "the sweep is deterministic across two runs",
    )
    parser.add_argument(
        "-o",
        "--out",
        default=str(REPO_ROOT / "BENCH_subset.json"),
        help="output JSON path (skipped in --check mode)",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)
    summary = results["sweep"]["summary"]
    print(
        f"swept {summary['n_swept']} budgets; "
        f"dominates random: {summary['all_dominate_random']}; "
        f"matches ffc: {summary['all_match_ffc']}; "
        f"deterministic: {summary['deterministic']}; "
        f"mean lift over random {summary['mean_coverage_lift']:+.4f}"
    )
    if args.check:
        failures = []
        if not summary["all_dominate_random"]:
            failures.append(
                "a random same-cost subset beat the budgeted selection"
            )
        if not summary["all_match_ffc"]:
            failures.append(
                "farthest-from-centroid beat the budgeted selection at "
                "equal cost"
            )
        if not summary["deterministic"]:
            failures.append("the sweep was not bit-identical across two runs")
        if results["measured_costs"] == 0:
            failures.append(
                "no measured costs — the timeline cost model was vacuous"
            )
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
