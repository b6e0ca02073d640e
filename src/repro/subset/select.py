"""Greedy submodular budget-aware subset selection.

The paper's ``k=`` path answers "which K workloads are representative?";
this module answers the operational question "which workloads should I
*run* when I can afford ``budget`` seconds of simulation?".

**Objective.**  Representativity is facility-location coverage of the
PCA-reduced metric space.  With pairwise Euclidean distances ``d(i, j)``
over the z-scored PC scores and similarities ``sim(i, j) = 1 - d(i, j) /
d_max``::

    coverage(S) = mean_i  max_{j in S} sim(i, j)

``coverage({}) = 0`` and ``coverage(all) = 1`` (every workload covers
itself at similarity 1).  The function is monotone and submodular, so
the classic greedy guarantees apply and lazy evaluation (CELF) is sound:
a candidate's cached marginal gain only ever shrinks, so a stale heap
entry is an upper bound.

**Budget handling.**  The greedy produces a *budget-independent ranking*
of the whole pool by marginal-gain-per-cost; a budget then selects the
longest affordable prefix of that ranking.  Prefixes nest, which buys
three properties the adaptive loop and the evaluation harness rely on:

- selections at growing budgets are supersets of each other, so
  coverage is monotone non-decreasing in budget *by construction*;
- re-budgeting is O(n) — no re-ranking;
- selection is deterministic: ties in the ranking break by (lower cost,
  workload name), never by float identity or dict order.

Raises :class:`~repro.errors.SubsetError` for budgets that are not
positive finite numbers or cannot afford even the cheapest workload.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import WorkloadMetricMatrix
from repro.core.pca import fit_pca
from repro.errors import SubsetError
from repro.obs.metrics import REGISTRY
from repro.subset.cost import WorkloadCost

__all__ = [
    "RankedCandidate",
    "BudgetedSelection",
    "similarity_matrix",
    "coverage_of",
    "greedy_ranking",
    "select_budgeted",
    "select_for_suite",
]

_SUBSET_COVERAGE = REGISTRY.gauge(
    "repro_subset_coverage",
    "PC-space facility-location coverage of the last budgeted selection",
)
_SUBSET_SIZE = REGISTRY.gauge(
    "repro_subset_size", "Workloads in the last budgeted selection"
)
_SUBSET_COST = REGISTRY.gauge(
    "repro_subset_cost_seconds",
    "Total simulated-runtime cost of the last budgeted selection",
)
_SUBSET_BUDGET = REGISTRY.gauge(
    "repro_subset_budget_seconds",
    "Budget the last budgeted selection was computed under",
)
_SUBSET_SELECTIONS = REGISTRY.counter(
    "repro_subset_selections_total", "Budgeted subset selections computed"
)


@dataclass(frozen=True)
class RankedCandidate:
    """One pool entry in greedy order.

    Attributes:
        workload: Workload label.
        index: Row index into the point/pool arrays.
        cost_s: Its simulated-runtime cost.
        gain: Marginal coverage gain when the greedy admitted it.
        cumulative_cost_s: Pool cost up to and including this entry.
        cumulative_coverage: Coverage of the ranking prefix ending here.
    """

    workload: str
    index: int
    cost_s: float
    gain: float
    cumulative_cost_s: float
    cumulative_coverage: float


@dataclass(frozen=True)
class BudgetedSelection:
    """A budget's worth of the greedy ranking.

    Attributes:
        picks: The selected prefix, in greedy order.
        ranking: The full pool ranking (budget-independent); the picks
            are always its affordable prefix, so growing the budget only
            ever extends a selection.
        budget_s: The budget selected under.
        total_pool_cost_s: Cost of running the whole pool.
        coverage: Facility-location coverage of the selection.
    """

    picks: tuple[RankedCandidate, ...]
    ranking: tuple[RankedCandidate, ...]
    budget_s: float
    total_pool_cost_s: float
    coverage: float

    @property
    def workloads(self) -> tuple[str, ...]:
        """Selected workload labels, in greedy order."""
        return tuple(pick.workload for pick in self.picks)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(pick.index for pick in self.picks)

    @property
    def cost_s(self) -> float:
        """Total cost of the selection (never exceeds the budget)."""
        return self.picks[-1].cumulative_cost_s if self.picks else 0.0

    @property
    def n_pool(self) -> int:
        return len(self.ranking)

    def to_dict(self) -> dict:
        """JSON-safe summary (the service response body)."""
        return {
            "budget_s": self.budget_s,
            "coverage": self.coverage,
            "cost_s": self.cost_s,
            "n_selected": len(self.picks),
            "n_pool": self.n_pool,
            "total_pool_cost_s": self.total_pool_cost_s,
            "selected": [
                {
                    "workload": pick.workload,
                    "cost_s": pick.cost_s,
                    "gain": pick.gain,
                    "cumulative_cost_s": pick.cumulative_cost_s,
                    "cumulative_coverage": pick.cumulative_coverage,
                }
                for pick in self.picks
            ],
        }


def similarity_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise ``1 - d/d_max`` similarities over PC-space points.

    A degenerate pool (all points identical) gets all-ones similarity:
    any single workload covers everything.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise SubsetError(f"expected a 2-D point matrix, got shape {points.shape}")
    deltas = points[:, None, :] - points[None, :, :]
    distances = np.sqrt(np.sum(deltas * deltas, axis=2))
    d_max = float(distances.max())
    if d_max <= 0.0:
        return np.ones_like(distances)
    return 1.0 - distances / d_max


def coverage_of(sim: np.ndarray, indices) -> float:
    """Facility-location coverage of the workloads at ``indices``."""
    chosen = list(indices)
    if not chosen:
        return 0.0
    return float(np.mean(np.max(sim[:, chosen], axis=1)))


def _validated_costs(
    labels: tuple[str, ...], costs: tuple[WorkloadCost, ...]
) -> np.ndarray:
    by_name = {cost.workload: cost for cost in costs}
    if len(by_name) != len(costs):
        raise SubsetError("duplicate workloads in cost table")
    missing = [label for label in labels if label not in by_name]
    if missing:
        raise SubsetError(f"costs missing for workloads: {missing}")
    seconds = np.array([by_name[label].seconds for label in labels], dtype=float)
    if not np.all(np.isfinite(seconds)) or np.any(seconds <= 0):
        raise SubsetError("every workload cost must be positive and finite")
    return seconds


def greedy_ranking(
    points: np.ndarray,
    labels: tuple[str, ...],
    costs: tuple[WorkloadCost, ...],
) -> tuple[RankedCandidate, ...]:
    """Rank the whole pool by marginal coverage gain per unit cost.

    Lazy (CELF) evaluation: stale gains are upper bounds under
    submodularity, so a popped candidate is only re-scored when its
    cached gain might still beat the runner-up.  Ties break by
    ``(higher ratio, lower cost, workload name)`` — fully deterministic.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] != len(labels):
        raise SubsetError(
            f"{len(labels)} labels but {points.shape[0]} point rows"
        )
    seconds = _validated_costs(labels, costs)
    sim = similarity_matrix(points)
    n = sim.shape[0]

    best = np.zeros(n)  # max similarity to the selected set, per workload
    # Heap entries: (-ratio, cost, name, index, gain, revision). The
    # revision is the selection size the gain was computed at; an entry
    # from the current revision is exact and can be admitted directly.
    heap: list[tuple] = []
    for j in range(n):
        gain = float(np.mean(sim[:, j]))
        heapq.heappush(
            heap, (-gain / seconds[j], seconds[j], labels[j], j, gain, 0)
        )

    ranking: list[RankedCandidate] = []
    cumulative_cost = 0.0
    coverage = 0.0
    revision = 0
    while heap:
        neg_ratio, cost_j, name, j, gain, at = heapq.heappop(heap)
        if at != revision:
            gain = float(np.mean(np.maximum(sim[:, j] - best, 0.0)))
            heapq.heappush(
                heap, (-gain / cost_j, cost_j, name, j, gain, revision)
            )
            continue
        best = np.maximum(best, sim[:, j])
        cumulative_cost += cost_j
        coverage += gain
        revision += 1
        ranking.append(
            RankedCandidate(
                workload=name,
                index=j,
                cost_s=float(cost_j),
                gain=gain,
                cumulative_cost_s=cumulative_cost,
                cumulative_coverage=min(1.0, coverage),
            )
        )
    return tuple(ranking)


def select_budgeted(
    points: np.ndarray,
    labels: tuple[str, ...],
    costs: tuple[WorkloadCost, ...],
    budget_s: float,
    ranking: tuple[RankedCandidate, ...] | None = None,
) -> BudgetedSelection:
    """Select the longest affordable prefix of the greedy ranking.

    Args:
        points: ``(n, k)`` PC-space coordinates (one row per workload).
        labels: Workload labels matching the rows.
        costs: One :class:`WorkloadCost` per label (any order).
        budget_s: Simulation-time budget in seconds.
        ranking: A precomputed ranking for these exact points/costs
            (the adaptive loop reuses one across budgets); computed
            when absent.

    Raises:
        SubsetError: If the budget is not a positive finite number, or
            is smaller than the cheapest workload's cost.
    """
    if not isinstance(budget_s, (int, float)) or isinstance(budget_s, bool):
        raise SubsetError(f"budget must be a number, got {budget_s!r}")
    budget_s = float(budget_s)
    if not math.isfinite(budget_s) or budget_s <= 0:
        raise SubsetError(
            f"budget must be a positive number of seconds, got {budget_s!r}"
        )
    if ranking is None:
        ranking = greedy_ranking(points, labels, costs)
    if not ranking:
        raise SubsetError("cannot select from an empty pool")

    cheapest = min(entry.cost_s for entry in ranking)
    if budget_s < cheapest:
        raise SubsetError(
            f"budget {budget_s:g}s is smaller than the cheapest workload "
            f"({cheapest:g}s) — nothing can be selected"
        )

    picks: list[RankedCandidate] = []
    for entry in ranking:
        if entry.cumulative_cost_s > budget_s:
            break
        picks.append(entry)

    total_pool_cost = ranking[-1].cumulative_cost_s
    coverage = picks[-1].cumulative_coverage if picks else 0.0
    selection = BudgetedSelection(
        picks=tuple(picks),
        ranking=ranking,
        budget_s=budget_s,
        total_pool_cost_s=total_pool_cost,
        coverage=coverage,
    )
    _SUBSET_SELECTIONS.inc()
    _SUBSET_COVERAGE.set(selection.coverage)
    _SUBSET_SIZE.set(len(selection.picks))
    _SUBSET_COST.set(selection.cost_s)
    _SUBSET_BUDGET.set(budget_s)
    return selection


def select_for_suite(
    matrix: WorkloadMetricMatrix,
    costs: tuple[WorkloadCost, ...],
    budget_s: float | None = None,
) -> BudgetedSelection:
    """Budgeted selection over a suite matrix's PC scores.

    ``budget_s=None`` is the default operating point: half the pool's
    simulation cost.
    """
    if budget_s is None:
        budget_s = 0.5 * sum(cost.seconds for cost in costs)
    return select_budgeted(
        fit_pca(matrix.values).scores, matrix.workloads, costs, budget_s
    )
