"""One-call reproduction of the paper's whole evaluation.

:func:`run_experiment` characterizes the 32-workload suite on the
simulated cluster, runs the subsetting pipeline, and materialises every
figure and table.  The heavy characterization is memoised per
configuration (see :mod:`repro.cluster.collection`), so the benchmark
harness can regenerate each figure without re-running the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.figures import (
    Figure1,
    Figure23,
    Figure4,
    Figure5,
    Figure6,
    figure1,
    figure2_3,
    figure4,
    figure5,
    figure6,
)
from repro.analysis.tables import Table4, Table5, table4, table5
from repro.cluster.collection import CollectionConfig, characterize_suite
from repro.cluster.testbed import MeasurementConfig
from repro.core.dataset import WorkloadMetricMatrix
from repro.core.subsetting import SubsettingResult, subset_workloads

__all__ = ["ExperimentConfig", "Experiment", "run_experiment",
           "experiment_from_matrix", "FAST_CONFIG"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a full reproduction run."""

    collection: CollectionConfig = CollectionConfig()
    subsetting_seed: int = 0
    cache_dir: str | None = None


#: A configuration tuned for quick regeneration (used by the benchmark
#: harness and the examples): one measured slave, smaller samples.  The
#: statistical structure is stable under these settings; only per-metric
#: variance grows slightly.
FAST_CONFIG = ExperimentConfig(
    collection=CollectionConfig(
        scale=0.5,
        seed=42,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=3, ops_per_core=4000
        ),
    )
)


@dataclass(frozen=True)
class Experiment:
    """Everything the paper's evaluation section produces.

    Attributes:
        config: The configuration used.
        result: The subsetting pipeline output (PCA, dendrogram, BIC, ...).
        fig1..fig6, tab4, tab5: The figure/table data products.
    """

    config: ExperimentConfig
    result: SubsettingResult
    fig1: Figure1
    fig2_3: Figure23
    fig4: Figure4
    fig5: Figure5
    fig6: Figure6
    tab4: Table4
    tab5: Table5

    def render(self) -> str:
        """The full evaluation as one text report."""
        sections = [
            self.fig1.render(),
            self.fig2_3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.fig6.render(),
            self.tab4.render(),
            self.tab5.render(),
        ]
        rule = "\n" + "=" * 72 + "\n"
        return rule.join(sections)


def run_experiment(config: ExperimentConfig | None = None) -> Experiment:
    """Characterize the suite and reproduce every figure and table."""
    config = config or ExperimentConfig()
    suite = characterize_suite(
        config=config.collection, cache_dir=config.cache_dir
    )
    return experiment_from_matrix(suite.matrix, config)


def experiment_from_matrix(
    matrix: WorkloadMetricMatrix, config: ExperimentConfig
) -> Experiment:
    """Every figure and table of an already collected suite matrix."""
    result = subset_workloads(matrix, seed=config.subsetting_seed)
    return Experiment(
        config=config,
        result=result,
        fig1=figure1(result),
        fig2_3=figure2_3(result),
        fig4=figure4(result),
        fig5=figure5(matrix),
        fig6=figure6(result),
        tab4=table4(result),
        tab5=table5(result),
    )
