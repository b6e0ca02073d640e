"""Tests for the processor-level driver."""

import numpy as np
import pytest

from repro.arch.batch import plan_workload
from repro.arch.processor import Processor, ProcessorConfig, events_from_sample
from repro.arch.pipeline import CycleModel, SampleCounts
from repro.arch.trace import InstructionMix, PhaseProfile
from repro.errors import ConfigurationError
from repro.metrics.derivation import REQUIRED_EVENTS

MIX = InstructionMix(load=0.3, store=0.1, branch=0.15, int_alu=0.35)


def profile(**overrides) -> PhaseProfile:
    defaults = dict(name="p", instructions=2_000_000, mix=MIX)
    defaults.update(overrides)
    return PhaseProfile(**defaults)


class TestConfig:
    def test_table_iii_defaults(self):
        config = ProcessorConfig()
        assert config.sockets == 2
        assert config.cores_per_socket == 6
        assert config.l3_size == 12 * 1024 * 1024
        assert Processor(config).total_cores == 12

    def test_hyperthreading_must_stay_disabled(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(hyperthreading=True)
        with pytest.raises(ConfigurationError):
            ProcessorConfig(turbo_boost=True)

    def test_bad_topology_raises(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(sockets=0)


class TestRunPhase:
    def test_produces_all_required_events(self):
        processor = Processor()
        events = processor.run_phase(
            profile(), np.random.default_rng(1), active_cores=2, ops_per_core=2000
        )
        assert set(REQUIRED_EVENTS) <= set(events)

    def test_events_scaled_to_nominal_instructions(self):
        processor = Processor()
        events = processor.run_phase(
            profile(instructions=5_000_000),
            np.random.default_rng(2),
            active_cores=2,
            ops_per_core=2000,
        )
        assert events["inst_retired.any"] == pytest.approx(5_000_000)

    def test_active_cores_bounds(self):
        processor = Processor()
        with pytest.raises(ConfigurationError):
            processor.run_phase(profile(), np.random.default_rng(3), active_cores=7)
        with pytest.raises(ConfigurationError):
            processor.run_phase(profile(), np.random.default_rng(3), active_cores=0)

    def test_ops_per_core_must_be_positive(self):
        processor = Processor()
        with pytest.raises(ConfigurationError):
            processor.run_phase(
                profile(), np.random.default_rng(4), ops_per_core=0
            )


class TestRunWorkload:
    def test_phases_sum(self):
        processor = Processor()
        phases = [profile(instructions=1_000_000), profile(instructions=3_000_000)]
        events = processor.run_workload(
            phases, np.random.default_rng(5), active_cores=2, ops_per_core=1500
        )
        assert events["inst_retired.any"] == pytest.approx(4_000_000)

    def test_empty_phase_list_raises(self):
        with pytest.raises(ConfigurationError):
            Processor().run_workload([], np.random.default_rng(6))

    def test_determinism(self):
        a = Processor().run_workload(
            [profile()], np.random.default_rng(7), active_cores=2, ops_per_core=1500
        )
        b = Processor().run_workload(
            [profile()], np.random.default_rng(7), active_cores=2, ops_per_core=1500
        )
        assert a == b

    def test_reset_between_workloads(self):
        processor = Processor()
        processor.run_workload(
            [profile()], np.random.default_rng(8), active_cores=2, ops_per_core=1000
        )
        processor.reset()
        assert processor.l3.resident_lines == 0
        assert processor.directory.tracked_lines == 0


class TestPlanMismatch:
    """A pre-synthesised plan must match the run it is handed to."""

    def plan(self, p, cores=2, ops=1500, warmup_fraction=0.3):
        return plan_workload(
            [p], np.random.default_rng(11), list(range(cores)), ops,
            warmup_fraction,
        )

    def test_core_count_mismatch_raises(self):
        p = profile()
        with pytest.raises(ConfigurationError):
            Processor().run_workload(
                [p], np.random.default_rng(12), active_cores=3,
                ops_per_core=4000, plan=self.plan(p),
            )

    def test_measured_sample_size_mismatch_raises(self):
        p = profile()
        with pytest.raises(ConfigurationError):
            Processor().run_workload(
                [p], np.random.default_rng(12), active_cores=2,
                ops_per_core=4000, plan=self.plan(p),
            )

    def test_warmup_sample_size_mismatch_raises(self):
        p = profile()
        with pytest.raises(ConfigurationError):
            Processor().run_phase(
                p, np.random.default_rng(12), active_cores=2,
                ops_per_core=1500, warmup_fraction=0.5,
                plan=self.plan(p)[0],
            )

    def test_profile_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            Processor().run_phase(
                profile(name="other"), np.random.default_rng(12),
                active_cores=2, ops_per_core=1500,
                plan=self.plan(profile())[0],
            )

    def test_matching_plan_equals_unplanned_run(self):
        p = profile()
        planned = Processor().run_workload(
            [p], np.random.default_rng(12), active_cores=2,
            ops_per_core=1500, plan=self.plan(p),
        )
        unplanned = Processor().run_workload(
            [p], np.random.default_rng(11), active_cores=2, ops_per_core=1500
        )
        assert planned == unplanned


def test_events_from_sample_scaling():
    counts = SampleCounts(instructions=1000, loads=300, stores=100)
    accounting = CycleModel().account(counts, 1.3)
    events = events_from_sample(counts, accounting, scale=10.0)
    assert events["inst_retired.any"] == pytest.approx(10_000)
    assert events["mem_inst_retired.loads"] == pytest.approx(3000)
    assert events["mem_access.any"] == pytest.approx(4000)
    # Kernel + user partition instructions.
    assert events["inst_retired.kernel"] + events["inst_retired.user"] == pytest.approx(
        events["inst_retired.any"]
    )
