"""The workload × metric matrix the statistical pipeline operates on.

The paper's data set ``D`` is a 32×45 matrix: one row per workload, one
column per Table II metric.  :class:`WorkloadMetricMatrix` carries the
matrix together with its row labels (workload names) and column labels
(metric names, always in catalog order) and knows how to serialise
itself, so expensive characterizations can be cached and shared between
the test suite and the benchmark harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import AnalysisError
from repro.metrics.catalog import METRIC_NAMES

__all__ = ["WorkloadMetricMatrix"]


@dataclass(frozen=True)
class WorkloadMetricMatrix:
    """Rows = workloads, columns = the 45 Table II metrics.

    Attributes:
        workloads: Row labels (e.g. ``("H-Sort", "S-Sort", ...)``).
        values: ``(n_workloads, 45)`` float matrix in catalog column order.
    """

    workloads: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise AnalysisError(f"expected a 2-D matrix, got shape {values.shape}")
        if values.shape[0] != len(self.workloads):
            raise AnalysisError(
                f"{len(self.workloads)} workload labels but {values.shape[0]} rows"
            )
        if values.shape[1] != len(METRIC_NAMES):
            raise AnalysisError(
                f"expected {len(METRIC_NAMES)} metric columns, got {values.shape[1]}"
            )
        if not np.all(np.isfinite(values)):
            raise AnalysisError("metric matrix contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return METRIC_NAMES

    @classmethod
    def from_rows(cls, rows: dict[str, dict[str, float]]) -> "WorkloadMetricMatrix":
        """Build from ``{workload: {metric: value}}`` mappings."""
        workloads = tuple(rows)
        values = np.array(
            [[rows[w][m] for m in METRIC_NAMES] for w in workloads], dtype=float
        )
        return cls(workloads=workloads, values=values)

    def row(self, workload: str) -> dict[str, float]:
        """One workload's metrics as a mapping.

        Raises:
            AnalysisError: If the workload is not in the matrix.
        """
        if workload not in self.workloads:
            raise AnalysisError(f"unknown workload {workload!r}")
        index = self.workloads.index(workload)
        return {name: float(self.values[index, i]) for i, name in enumerate(METRIC_NAMES)}

    def column(self, metric: str) -> np.ndarray:
        """One metric across all workloads.

        Raises:
            AnalysisError: If the metric is not a catalog metric.
        """
        if metric not in METRIC_NAMES:
            raise AnalysisError(f"unknown metric {metric!r}")
        return self.values[:, METRIC_NAMES.index(metric)].copy()

    def select(self, workloads: tuple[str, ...]) -> "WorkloadMetricMatrix":
        """Submatrix with the given workload rows (in the given order)."""
        indices = [self.workloads.index(w) for w in workloads]
        return WorkloadMetricMatrix(
            workloads=tuple(workloads), values=self.values[indices]
        )

    # -- persistence ----------------------------------------------------------

    def to_csv(self) -> str:
        """The matrix as CSV text (header row + one row per workload)."""
        header = "workload," + ",".join(METRIC_NAMES)
        lines = [header]
        for i, workload in enumerate(self.workloads):
            values = ",".join(f"{v:.6g}" for v in self.values[i])
            lines.append(f"{workload},{values}")
        return "\n".join(lines) + "\n"

    def to_payload(self) -> dict:
        """The matrix as a JSON-safe dict (files and store entries)."""
        return {
            "workloads": list(self.workloads),
            "metrics": list(METRIC_NAMES),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WorkloadMetricMatrix":
        """Inverse of :meth:`to_payload` (metric columns not checked)."""
        return cls(
            workloads=tuple(payload["workloads"]),
            values=np.array(payload["values"], dtype=float),
        )

    def save(self, path: str | Path) -> None:
        """Write the matrix as JSON."""
        Path(path).write_text(json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadMetricMatrix":
        """Read a matrix written by :meth:`save`.

        Raises:
            AnalysisError: If the stored metric columns don't match the
                current catalog (stale cache).
        """
        payload = json.loads(Path(path).read_text())
        if tuple(payload["metrics"]) != METRIC_NAMES:
            raise AnalysisError(f"{path}: stale cache (metric catalog changed)")
        return cls.from_payload(payload)
