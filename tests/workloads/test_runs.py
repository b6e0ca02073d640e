"""Execution tests: every workload really computes a verified result."""

import pytest

from repro.stacks.base import PhaseKind
from repro.workloads import SUITE, RunContext, workload_by_name

CTX = RunContext(scale=0.25, seed=11)

#: Checks that must be exactly 1.0 for the named workloads.
_BINARY_CHECKS = {
    "Sort": ("sorted", "records_preserved"),
    "WordCount": ("counts_correct",),
    "Grep": ("matches_correct",),
    "Bayes": (),  # accuracy is asserted separately (it is a float)
    "Kmeans": ("inertia_decreased",),
    "PageRank": ("all_vertices_ranked",),
}


@pytest.mark.parametrize("name", [w.name for w in SUITE])
def test_workload_runs_and_self_checks(name):
    workload = workload_by_name(name)
    run = workload.run(CTX)
    assert run.trace.records, "trace must not be empty"
    binary = _BINARY_CHECKS.get(workload.algorithm, ("matches_reference",))
    for check in binary:
        assert run.checks.get(check) == 1.0, (name, check, run.checks)


def test_bayes_learns_above_chance():
    for name in ("H-Bayes", "S-Bayes"):
        run = workload_by_name(name).run(RunContext(scale=1.0, seed=11))
        assert run.checks["accuracy"] > 0.4  # 4 classes -> chance is 0.25


def test_pagerank_conserves_rank_mass():
    for name in ("H-PageRank", "S-PageRank"):
        run = workload_by_name(name).run(CTX)
        assert run.checks["rank_mass"] == pytest.approx(1.0, abs=0.02)


def test_hadoop_and_spark_versions_agree_on_results():
    """Same algorithm, same data, same answer — the paper's 'identical
    algorithms / identical data sets' methodology (Section III-A)."""
    for algorithm in ("Sort", "WordCount", "Grep"):
        h = workload_by_name(f"H-{algorithm}").run(CTX)
        s = workload_by_name(f"S-{algorithm}").run(CTX)
        assert h.output_records == s.output_records


def test_stack_families_emit_their_signature_phases():
    h_run = workload_by_name("H-WordCount").run(CTX)
    s_run = workload_by_name("S-WordCount").run(CTX)
    h_kinds = {r.kind for r in h_run.trace.records}
    s_kinds = {r.kind for r in s_run.trace.records}
    assert PhaseKind.MAP in h_kinds and PhaseKind.REDUCE in h_kinds
    assert PhaseKind.STAGE in s_kinds and PhaseKind.SHUFFLE_READ in s_kinds
    assert PhaseKind.MAP not in s_kinds


def test_runs_are_deterministic():
    a = workload_by_name("H-Aggregation").run(CTX)
    b = workload_by_name("H-Aggregation").run(CTX)
    assert a.output_records == b.output_records
    assert len(a.trace.records) == len(b.trace.records)


def test_scale_changes_volume():
    small = workload_by_name("S-Grep").run(RunContext(scale=0.2, seed=3))
    large = workload_by_name("S-Grep").run(RunContext(scale=0.6, seed=3))
    assert large.trace.total_records_in > small.trace.total_records_in


def test_iterative_workloads_chain_jobs():
    run = workload_by_name("H-PageRank").run(CTX)
    # One SETUP record per chained MapReduce job (4 iterations).
    setups = run.trace.by_kind(PhaseKind.SETUP)
    assert len(setups) >= 4


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", ["H-Aggregation", "S-Aggregation", "S-AggQuery"])
def test_float_aggregates_match_the_reference_at_full_scale(name, seed):
    """At scale 1.0 the combiners merge float SUM/AVG partials in another
    order than the reference's row fold; the totals must still agree
    exactly."""
    run = workload_by_name(name).run(RunContext(scale=1.0, seed=seed))
    assert run.checks["matches_reference"] == 1.0
