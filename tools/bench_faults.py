"""Benchmark fault-injection recovery overhead.

Usage::

    python tools/bench_faults.py              # full sample, writes BENCH_faults.json
    python tools/bench_faults.py --check      # reduced sample, exit 1 on drift

Characterizes a sample of workloads twice at the same measurement seed —
once fault-free and once under a recoverable fault plan (task crashes,
stragglers, transient HDFS read errors) — and reports:

1. **Bit-identity** — the headline invariant: with retry budgets intact,
   the metric vector under faults must equal the fault-free vector
   exactly.  ``--check`` exits non-zero if any workload drifts.
2. **Recovery overhead** — wall-clock ratio of the faulty run to the
   clean run, plus the simulated backoff seconds that recovery *would*
   have spent on a real cluster (the simulator only accounts for it).
3. **Fault volume** — injected faults, task retries, and speculative
   re-executions per workload, so the overhead numbers are non-vacuous.

Results land in ``BENCH_faults.json`` alongside the other BENCH files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from dataclasses import replace  # noqa: E402

from repro.cluster.testbed import Cluster, MeasurementConfig  # noqa: E402
from repro.errors import StackExecutionError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.obs.stats import Stopwatch, summarize  # noqa: E402
from repro.stacks.base import stable_hash  # noqa: E402
from repro.workloads import RunContext, workload_by_name  # noqa: E402

#: Recoverable chaos: high enough to inject on every workload, low
#: enough that the default retry budget (4 attempts) always absorbs it.
PLAN = FaultPlan(seed=11, crash=0.15, straggler=0.2, hdfs_read=0.1)

FULL_SAMPLE = (
    "H-WordCount",
    "H-Sort",
    "H-Grep",
    "H-AggQuery",
    "S-WordCount",
    "S-Sort",
    "S-JoinQuery",
    "S-PageRank",
)
CHECK_SAMPLE = ("H-WordCount", "S-Sort", "S-JoinQuery")


def bench_workload(name: str, context: RunContext, measurement: MeasurementConfig):
    cluster = Cluster()
    workload = workload_by_name(name)

    with Stopwatch() as clean_sw:
        clean = cluster.characterize_workload(workload, context, measurement)
    clean_s = clean_sw.seconds

    # Mirror the collection layer: a workload whose retry budget is
    # exhausted (rare but possible on task-heavy iterative jobs) is
    # retried whole under a reseeded plan.
    with Stopwatch() as chaos_sw:
        for attempt in range(1, 5):
            plan = PLAN if attempt == 1 else replace(PLAN, seed=stable_hash((PLAN.seed, attempt)))
            try:
                chaos = cluster.characterize_workload(
                    workload, context, measurement, faults=plan
                )
            except StackExecutionError:
                continue
            break
        else:
            raise SystemExit(
                f"{name}: every benchmark attempt exhausted its retry budget"
            )
    chaos_s = chaos_sw.seconds

    identical = clean.metrics == chaos.metrics and clean.per_slave == chaos.per_slave
    stats = chaos.faults or {}
    return {
        "workload": name,
        "bit_identical": identical,
        "workload_attempts": attempt,
        "clean_seconds": round(clean_s, 4),
        "faulty_seconds": round(chaos_s, 4),
        "overhead_ratio": round(chaos_s / clean_s, 3) if clean_s > 0 else None,
        "injected": stats.get("injected", {}),
        "task_retries": stats.get("task_retries", 0),
        "speculative_tasks": stats.get("speculative_tasks", 0),
        "simulated_backoff_s": round(stats.get("backoff_s", 0.0), 3),
    }


def run_benchmark(check: bool) -> dict:
    sample = CHECK_SAMPLE if check else FULL_SAMPLE
    context = RunContext(scale=0.3 if check else 0.5, seed=7)
    measurement = MeasurementConfig(
        slaves_measured=2,
        active_cores=3,
        ops_per_core=1500 if check else 4000,
        perf_repeats=2,
    )
    rows = []
    for name in sample:
        row = bench_workload(name, context, measurement)
        flag = "ok" if row["bit_identical"] else "DRIFT"
        print(
            f"  {name:<14} {flag:<6} clean {row['clean_seconds']:.2f}s  "
            f"faulty {row['faulty_seconds']:.2f}s  "
            f"x{row['overhead_ratio']}  retries {row['task_retries']}"
        )
        rows.append(row)

    total_injected = sum(sum(r["injected"].values()) for r in rows)
    clean_total = sum(r["clean_seconds"] for r in rows)
    faulty_total = sum(r["faulty_seconds"] for r in rows)
    return {
        "check_mode": check,
        "cpu_count": os.cpu_count() or 1,
        "fault_plan": PLAN.to_dict(),
        "scale": context.scale,
        "seed": context.seed,
        "all_bit_identical": all(r["bit_identical"] for r in rows),
        "total_injected": total_injected,
        "clean_seconds": round(clean_total, 3),
        "faulty_seconds": round(faulty_total, 3),
        "overhead_ratio": round(faulty_total / clean_total, 3),
        "clean_latency": summarize([r["clean_seconds"] for r in rows]),
        "faulty_latency": summarize([r["faulty_seconds"] for r in rows]),
        "workloads": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="reduced sample; exit non-zero unless every workload is "
        "bit-identical under faults and at least one fault was injected",
    )
    parser.add_argument(
        "-o",
        "--out",
        default=str(REPO_ROOT / "BENCH_faults.json"),
        help="output JSON path (skipped in --check mode)",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(check=args.check)
    print(
        f"injected {results['total_injected']} faults; "
        f"overhead x{results['overhead_ratio']}; "
        f"bit-identical: {results['all_bit_identical']}"
    )
    if args.check:
        failures = []
        if not results["all_bit_identical"]:
            failures.append("metrics drifted under a recoverable fault plan")
        if results["total_injected"] == 0:
            failures.append("no faults injected — the check was vacuous")
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
