"""Per-workload simulated-runtime cost model.

The budget in ``/subset?budget=<seconds>`` is *simulation time*: how long
the testbed takes to characterize a workload.  To select under that
budget the engine needs a cost per workload, derived from artifacts we
already store rather than from extra runs:

- **Timeline telemetry** (preferred).  A characterization collected with
  the :mod:`repro.obs.timeline` sampler carries a monotone-clock series
  whose span *is* the measured wall time of the run.  Cost source:
  ``"timeline"``.
- **Calibrated op-count fallback**.  Without a timeline, cost is
  estimated from the run's engine trace — records moved, bytes moved and
  phase count, each weighted by a constant-work coefficient.  When at
  least one workload in the batch *does* have a measured cost, the
  fallback is rescaled so the two populations agree in the median
  (WAter-style runtime-profile feedback); otherwise the raw coefficients
  stand.  Cost source: ``"op-count"``.

Costs are plain data (:class:`WorkloadCost`) and persist in the
:class:`~repro.service.store.ResultStore` under a key derived from the
collection parameters, so re-selection across processes (the service,
the CLI, the benchmark harness) never re-derives them from hydrated
runs.  The store is duck-typed here — this module never imports the
service layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.testbed import WorkloadCharacterization
from repro.errors import SubsetError

__all__ = [
    "WorkloadCost",
    "estimate_cost",
    "estimate_costs",
    "cost_store_key",
    "persist_costs",
    "load_costs",
    "median",
]

#: Constant-work coefficients of the op-count fallback: seconds of
#: simulation per record through a phase boundary, per byte moved, and
#: per phase record (fixed dispatch overhead).  Absolute values matter
#: less than ratios — with any measured cost present the whole estimate
#: is rescaled to the measured population.
SECONDS_PER_RECORD = 2.0e-6
SECONDS_PER_BYTE = 4.0e-9
SECONDS_PER_PHASE = 1.5e-3

#: No workload costs less than this; guards ratio math against a
#: degenerate trace (zero records, zero bytes).
MIN_COST_S = 1e-6

_COST_PAYLOAD_KIND = "subset-costs"


@dataclass(frozen=True)
class WorkloadCost:
    """One workload's simulated-runtime estimate.

    Attributes:
        workload: Workload label.
        seconds: Estimated (or measured) simulation seconds.
        source: ``"timeline"`` for measured costs, ``"op-count"`` for
            the calibrated trace-volume fallback.
        raw_units: The uncalibrated fallback estimate in seconds —
            kept on both sources so measured/estimated populations can
            be compared and recalibrated later.
    """

    workload: str
    seconds: float
    source: str
    raw_units: float

    @property
    def measured(self) -> bool:
        return self.source == "timeline"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seconds": self.seconds,
            "source": self.source,
            "raw_units": self.raw_units,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadCost":
        return cls(
            workload=str(payload["workload"]),
            seconds=float(payload["seconds"]),
            source=str(payload["source"]),
            raw_units=float(payload["raw_units"]),
        )


def _op_units(characterization: WorkloadCharacterization) -> float:
    """The raw (uncalibrated) op-count estimate in seconds."""
    records = characterization.run.trace.records
    moved_records = sum(r.records_in + r.records_out for r in records)
    moved_bytes = sum(r.bytes_in + r.bytes_out for r in records)
    return (
        moved_records * SECONDS_PER_RECORD
        + moved_bytes * SECONDS_PER_BYTE
        + len(records) * SECONDS_PER_PHASE
    )


def _measured_seconds(characterization: WorkloadCharacterization) -> float | None:
    """Timeline-measured wall seconds, or ``None`` without telemetry."""
    series = characterization.timeline
    if series is None or len(series) == 0:
        return None
    duration_ms = series.duration_ms
    if duration_ms <= 0:
        return None
    return duration_ms / 1e3


def estimate_cost(characterization: WorkloadCharacterization) -> WorkloadCost:
    """One workload's cost, in isolation (no cross-workload calibration)."""
    raw = max(MIN_COST_S, _op_units(characterization))
    measured = _measured_seconds(characterization)
    if measured is not None:
        return WorkloadCost(
            workload=characterization.name,
            seconds=max(MIN_COST_S, measured),
            source="timeline",
            raw_units=raw,
        )
    return WorkloadCost(
        workload=characterization.name,
        seconds=raw,
        source="op-count",
        raw_units=raw,
    )


def median(values: list[float]) -> float:
    """The middle value (the mean of the middle two for an even count)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def estimate_costs(
    characterizations: tuple[WorkloadCharacterization, ...] | list,
) -> tuple[WorkloadCost, ...]:
    """Costs for a batch, calibrating the fallback against measured runs.

    Workloads with timeline telemetry keep their measured seconds.  The
    op-count fallback for the rest is multiplied by the median ratio of
    ``measured / raw`` over the measured population, so mixed batches
    (some collected with sampling, some hydrated from older stores) live
    on one scale.

    Raises:
        SubsetError: On an empty batch or duplicate workload names.
    """
    if not characterizations:
        raise SubsetError("cannot estimate costs for an empty batch")
    names = [c.name for c in characterizations]
    if len(set(names)) != len(names):
        raise SubsetError("duplicate workload names in cost batch")

    costs = [estimate_cost(c) for c in characterizations]
    ratios = [c.seconds / c.raw_units for c in costs if c.measured]
    if ratios and any(not c.measured for c in costs):
        alpha = median(ratios)
        costs = [
            c
            if c.measured
            else replace(c, seconds=max(MIN_COST_S, c.raw_units * alpha))
            for c in costs
        ]
    return tuple(costs)


# -- persistence ---------------------------------------------------------------


def cost_store_key(suite_key: str) -> str:
    """The store key of a cost table, derived from the suite entry's key
    (:func:`repro.cluster.collection.suite_store_key`) so costs follow
    exactly the collection they were estimated from."""
    return f"subsetcost-{suite_key}"


def persist_costs(store, suite_key: str, costs: tuple[WorkloadCost, ...]) -> str:
    """Write a cost table through a ResultStore; returns its content hash."""
    return store.put(
        cost_store_key(suite_key),
        {
            "kind": _COST_PAYLOAD_KIND,
            "suite_key": suite_key,
            "costs": [cost.to_dict() for cost in costs],
        },
    )


def load_costs(store, suite_key: str) -> tuple[WorkloadCost, ...] | None:
    """The persisted cost table for ``suite_key``, or ``None`` on a miss."""
    payload = store.get(cost_store_key(suite_key), touch=False)
    if payload is None or payload.get("kind") != _COST_PAYLOAD_KIND:
        return None
    return tuple(WorkloadCost.from_dict(row) for row in payload["costs"])
