"""Lifecycle tests for the persistent collection worker pool.

Three guarantees beyond bit-identity (which
``test_collection_parallel.py`` and ``test_batch_equivalence.py`` pin):

* a worker that *dies* (not: fails) surfaces as
  :class:`~repro.errors.WorkerPoolError` promptly — never a hang;
* cooperative cancellation drains in-flight work and leaves the pool
  healthy and reusable;
* store-backed lazy results hydrate into objects identical to an eager
  serial characterization, and answer verification without hydrating.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import collection, pool as pool_mod
from repro.cluster.collection import (
    CollectionConfig,
    characterize_suite,
    workload_store_key,
)
from repro.cluster.pool import LazyWorkloadCharacterization, shutdown_pools
from repro.cluster.testbed import MeasurementConfig
from repro.errors import CollectionCancelled, StoreError, WorkerPoolError
from repro.obs.timeline import TimelineConfig
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

TINY = MeasurementConfig(slaves_measured=1, active_cores=2, ops_per_core=1200)


def tiny_config() -> CollectionConfig:
    return CollectionConfig(scale=0.2, seed=7, measurement=TINY)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    """Cold memo, no ambient store, and no pool leaked across tests.

    Pools must be shut down on *entry* too: workers snapshot the
    environment at fork, so a healthy pool inherited from another test
    file would never see this test's CRASH_ENV monkeypatch."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv(pool_mod.CRASH_ENV, raising=False)
    collection._MEMO.clear()
    shutdown_pools()
    yield
    collection._MEMO.clear()
    shutdown_pools()


class TestCrash:
    def test_worker_death_raises_promptly_not_hangs(self, monkeypatch):
        """An os._exit'd worker must produce a WorkerPoolError naming the
        outstanding work — detected by liveness polling, not a timeout
        on the full result."""
        monkeypatch.setenv(pool_mod.CRASH_ENV, SUITE[1].name)
        with pytest.raises(WorkerPoolError, match="died"):
            characterize_suite(SUITE[:3], tiny_config(), workers=2)

    def test_broken_pool_is_not_reused(self, monkeypatch):
        monkeypatch.setenv(pool_mod.CRASH_ENV, SUITE[1].name)
        with pytest.raises(WorkerPoolError):
            characterize_suite(SUITE[:3], tiny_config(), workers=2)
        assert not pool_mod._POOLS  # torn down, not lingering

        # A clean retry builds a fresh pool and succeeds.
        monkeypatch.delenv(pool_mod.CRASH_ENV)
        collection._MEMO.clear()
        result = characterize_suite(SUITE[:3], tiny_config(), workers=2)
        assert len(result.characterizations) == 3


class TestCancel:
    def test_cancel_drains_and_pool_stays_reusable(self):
        cancel = threading.Event()

        def cancel_after_first(done: int, total: int) -> None:
            cancel.set()

        with pytest.raises(CollectionCancelled):
            characterize_suite(
                SUITE[:4], tiny_config(), workers=2,
                progress=cancel_after_first, cancel=cancel,
            )

        # The same pool (workers alive, same object) serves the retry.
        pools_after_cancel = dict(pool_mod._POOLS)
        assert len(pools_after_cancel) == 1
        collection._MEMO.clear()
        result = characterize_suite(SUITE[:4], tiny_config(), workers=2)
        assert len(result.characterizations) == 4
        assert dict(pool_mod._POOLS) == pools_after_cancel

    def test_cancel_before_start_runs_nothing(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CollectionCancelled):
            characterize_suite(SUITE[:3], tiny_config(), workers=2, cancel=cancel)


class TestLazyHydration:
    def test_lazy_results_hydrate_identical_to_eager(self):
        config = tiny_config()
        serial = characterize_suite(SUITE[:2], config, workers=1)
        collection._MEMO.clear()
        parallel = characterize_suite(SUITE[:2], config, workers=2)

        for eager, lazy in zip(
            serial.characterizations, parallel.characterizations
        ):
            assert isinstance(lazy, LazyWorkloadCharacterization)
            # Compact fields arrive over the queue.
            assert lazy.metrics == eager.metrics
            assert lazy.attempts == eager.attempts
            assert lazy.correctness_checks == eager.correctness_checks
            # Heavy fields hydrate from the spill store on access.
            assert lazy.per_slave == eager.per_slave
            assert lazy.run.checks == eager.run.checks
            assert lazy.run.output_records == eager.run.output_records
            records = lazy.run.trace.records
            assert [r.name for r in records] == [
                r.name for r in eager.run.trace.records
            ]
            assert [r.bytes_in for r in records] == [
                r.bytes_in for r in eager.run.trace.records
            ]

    def test_checks_answer_without_hydration(self):
        parallel = characterize_suite(SUITE[:2], tiny_config(), workers=2)
        lazy = parallel.characterizations[0]
        assert isinstance(lazy, LazyWorkloadCharacterization)
        assert "_full_cache" not in lazy.__dict__
        assert lazy.correctness_checks  # served from the compact copy
        assert "_full_cache" not in lazy.__dict__
        lazy.run  # first heavy access hydrates ...
        assert "_full_cache" in lazy.__dict__  # ... and caches

    def test_parallel_payloads_land_in_cache_dir(self, tmp_path):
        """With a persistent store configured, worker-side spills double
        as persistence: a cold process-level cache hit must hydrate the
        exact parallel matrix."""
        config = tiny_config()
        parallel = characterize_suite(
            SUITE[:2], config, cache_dir=tmp_path, workers=2
        )
        store = ResultStore(tmp_path)
        for workload in SUITE[:2]:
            assert store.get(workload_store_key(config, workload.name))

        collection._MEMO.clear()
        hydrated = characterize_suite(
            SUITE[:2], config, cache_dir=tmp_path, workers=1
        )
        assert np.array_equal(
            hydrated.matrix.values, parallel.matrix.values
        )


class TestPoolIdentity:
    def test_same_config_reuses_pool(self):
        characterize_suite(SUITE[:2], tiny_config(), workers=2)
        first = dict(pool_mod._POOLS)
        collection._MEMO.clear()
        characterize_suite(SUITE[2:4], tiny_config(), workers=2)
        assert dict(pool_mod._POOLS) == first

    def test_config_change_replaces_pool(self):
        characterize_suite(SUITE[:2], tiny_config(), workers=2)
        (old_key,) = pool_mod._POOLS
        old_pool = pool_mod._POOLS[old_key]
        other = CollectionConfig(scale=0.25, seed=7, measurement=TINY)
        characterize_suite(SUITE[:2], other, workers=2)
        assert old_pool.closed
        (new_key,) = pool_mod._POOLS
        assert new_key != old_key


    def test_pool_follows_fields_outside_the_cache_key(self):
        """``max_run_samples`` is not part of ``cache_key()``: a pool
        built for one value must not collect for another."""
        for max_run_samples in (512, 4):
            config = replace(
                tiny_config(),
                timeline=TimelineConfig(
                    interval_ms=0.0, max_run_samples=max_run_samples
                ),
            )
            pooled = characterize_suite(SUITE[:2], config, workers=2)
            collection._MEMO.clear()
            serial = characterize_suite(SUITE[:2], config, workers=1)
            collection._MEMO.clear()
            for fast, slow in zip(
                pooled.characterizations, serial.characterizations
            ):
                assert _clockless(fast.timeline) == _clockless(slow.timeline)
                assert len(fast.timeline.run_samples) <= 2 * max_run_samples


def _clockless(series) -> list[dict]:
    """A timeline without its wall-clock parts.  Which run samples
    survive decimation depends on their wall-clock spacing, so of those
    only the final state is kept."""
    kept = [s for s in series.samples if s["source"] != "run"]
    kept.append(series.run_samples[-1])
    return [
        {key: value for key, value in sample.items() if key not in ("t_ms", "seq")}
        for sample in kept
    ]


class TestTwoPhasePut:
    def test_adopt_requires_matching_object(self, tmp_path):
        store = ResultStore(tmp_path)
        digest, nbytes = store.put_object("two-phase", {"kind": "x", "v": 1})
        assert store.get("two-phase") is None  # written but not indexed
        store.adopt("two-phase", digest, nbytes)
        assert store.get("two-phase")["v"] == 1

    def test_adopt_rejects_bad_digest(self, tmp_path):
        store = ResultStore(tmp_path)
        digest, nbytes = store.put_object("two-phase", {"kind": "x"})
        with pytest.raises(StoreError, match="hash mismatch"):
            store.adopt("two-phase", "0" * 64, nbytes)

    def test_adopt_missing_object_fails_loudly(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="no object file"):
            store.adopt("never-written", "0" * 64, 1)
