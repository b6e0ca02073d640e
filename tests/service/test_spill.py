"""Tests for the shared spill-directory protocol (``SpillDir``).

One fork-race harness covers every staleness policy the fleet uses:
two real processes collect the same directory at once, and each stale
entry must be removed exactly once while fresh entries survive.  The
regression tests at the end pin the claim and job-snapshot users.
"""

import json
import multiprocessing
import os
import socket
import time

import pytest

from repro.cluster.collection import CollectionConfig
from repro.cluster.testbed import MeasurementConfig
from repro.service.claims import ClaimRegistry
from repro.service.jobs import JobManager, JobState
from repro.service.locking import SpillDir, atomic_write
from repro.service.store import ResultStore

_MP = multiprocessing.get_context("fork")

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="race harness needs os.fork()"
)

TTL_S = 30.0


def _spill(root) -> SpillDir:
    return SpillDir(root / "spill", root / "spill.lock", ttl_s=TTL_S, pid_bound=True)


def _dead_pid() -> int:
    child = _MP.Process(target=lambda: None)
    child.start()
    child.join(10.0)
    return child.pid


def _record(pid: int, age_s: float = 0.0) -> dict:
    return {
        "pid": pid,
        "host": socket.gethostname(),
        "written_s": time.time() - age_s,
        "ttl_s": TTL_S,
    }


def _age(path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


def _populate(spill: SpillDir, policy: str) -> tuple[set[str], set[str]]:
    """Write stale and fresh entries for ``policy``; return their names."""
    stale, fresh = set(), set()
    spill.path.mkdir(parents=True)
    for index in range(6):
        name = f"stale-{index}"
        if policy == "pid-bound":  # fresh heartbeat, dead owner
            spill.write(name, _record(_dead_pid()))
        elif policy == "ttl-bound":  # live owner, heartbeat past the TTL
            spill.write(name, _record(os.getpid(), age_s=10 * TTL_S))
        else:  # torn: unparseable, and older than the TTL
            spill.path_of(name).write_bytes(b'{"pid": 1, "wri')
            _age(spill.path_of(name), 10 * TTL_S)
        stale.add(spill.path_of(name).name)
    spill.write("fresh-record", _record(os.getpid()))
    fresh.add(spill.path_of("fresh-record").name)
    # A young torn file: a writer may still be mid-rewrite next to it.
    spill.path_of("fresh-torn").write_bytes(b"")
    fresh.add(spill.path_of("fresh-torn").name)
    return stale, fresh


def _racing_collector(root, barrier, results) -> None:
    try:
        spill = _spill(root)
        barrier.wait(10.0)
        results.put(("ok", [path.name for path in spill.gc()]))
    except Exception as exc:  # noqa: BLE001 - surfaced in the parent
        results.put(("error", f"{type(exc).__name__}: {exc}"))


@needs_fork
@pytest.mark.parametrize("policy", ["pid-bound", "ttl-bound", "torn"])
def test_racing_collectors_remove_each_stale_entry_exactly_once(tmp_path, policy):
    stale, fresh = _populate(_spill(tmp_path), policy)
    barrier = _MP.Barrier(2)
    results = _MP.Queue()
    children = [
        _MP.Process(target=_racing_collector, args=(tmp_path, barrier, results))
        for _ in range(2)
    ]
    for child in children:
        child.start()
    reports = [results.get(timeout=30.0) for _ in children]
    for child in children:
        child.join(30.0)
    assert not any(child.is_alive() for child in children)
    assert [status for status, _ in reports] == ["ok", "ok"], reports
    removed = [name for _, names in reports for name in names]
    assert len(removed) == len(set(removed))  # nobody removed an entry twice
    assert set(removed) == stale
    left = {path.name for path in (tmp_path / "spill").iterdir()}
    assert left == fresh


def test_live_excludes_stale_and_collects_them(tmp_path):
    spill = _spill(tmp_path)
    spill.write("old", _record(os.getpid(), age_s=10 * TTL_S))
    spill.write("new", _record(os.getpid()))
    assert [r["written_s"] > time.time() - TTL_S for r in spill.live(gc=False)] == [True]
    assert spill.path_of("old").exists()  # gc=False only filters
    assert len(spill.live()) == 1
    assert not spill.path_of("old").exists()


def test_exclusive_write_has_one_winner_and_a_complete_file(tmp_path):
    spill = _spill(tmp_path)
    assert spill.write("k", {"owner": 1}, exclusive=True) is True
    assert spill.write("k", {"owner": 2}, exclusive=True) is False
    assert json.loads(spill.path_of("k").read_text()) == {"owner": 1}
    assert [p.name for p in (tmp_path / "spill").iterdir()] == ["k.json"]


def test_no_expiry_policy_never_collects(tmp_path):
    spill = SpillDir(tmp_path / "spill", tmp_path / "spill.lock")
    spill.write("old", {"written_s": 0.0, "ttl_s": 1.0})
    torn = spill.path_of("torn")
    torn.write_bytes(b"{")
    _age(torn, 1e6)
    assert len(spill.live()) == 1
    assert spill.gc() == []
    assert torn.exists()


def test_companions_go_with_their_record(tmp_path):
    spill = SpillDir(
        tmp_path / "spill", tmp_path / "spill.lock", ttl_s=TTL_S, clock=None,
        companions=(".cancel",),
    )
    spill.write("job-1", {"id": "job-1"})
    marker = tmp_path / "spill" / "job-1.cancel"
    marker.touch()
    assert spill.gc() == []  # mtime clock: freshly written
    _age(spill.path_of("job-1"), 10 * TTL_S)
    assert spill.gc() == [spill.path_of("job-1")]
    assert not marker.exists()


def test_atomic_write_creates_missing_parents(tmp_path):
    target = tmp_path / "a" / "b" / "x.bin"
    assert atomic_write(target, b"payload") is True
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["x.bin"]


# -- regressions in the ported users ------------------------------------------


def test_torn_claim_is_held_until_its_ttl_then_broken(tmp_path):
    """A claimant killed between creating its claim file and writing it
    used to wedge the key forever, while ``wait`` reported it clear."""
    registry = ClaimRegistry(tmp_path, ttl_s=1.0)
    torn = tmp_path / "claims" / "k.claim"
    torn.write_bytes(b"")
    assert registry.acquire("k") is None
    assert registry.wait("k", timeout=0.2) is False  # held, not cleared
    _age(torn, 5.0)
    claim = registry.acquire("k")
    assert claim is not None
    assert registry.holder("k")["token"] == claim.token
    registry.release(claim)

    torn.write_bytes(b"{")
    _age(torn, 5.0)
    assert registry.wait("k", timeout=5.0) is True  # broken by the waiter
    assert not torn.exists()


def test_a_claim_whose_write_fails_leaves_no_file_behind(tmp_path, monkeypatch):
    """The claim appears complete or not at all: a claimant that dies
    while writing its record must not leave an empty claim file."""
    registry = ClaimRegistry(tmp_path)

    def crash(self, o, _one_shot=False):
        raise OSError("killed while writing the claim")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", crash)
    with pytest.raises(OSError):
        registry.acquire("k")
    monkeypatch.undo()
    assert list((tmp_path / "claims").iterdir()) == []
    assert registry.acquire("k") is not None


FAST = CollectionConfig(
    scale=0.2,
    seed=11,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=1000, perf_repeats=2
    ),
)


def test_expired_job_snapshots_and_cancel_markers_are_collected(tmp_path):
    """Snapshots not rewritten for ``claim_ttl_s`` leave ``jobs/`` and
    the ``GET /jobs`` listing, together with their cancel markers."""
    manager = JobManager(ResultStore(tmp_path), config=FAST, claim_ttl_s=60.0)
    try:
        job = manager.collect(("H-Grep",), timeout=120)
        assert job.state is JobState.DONE
        jobs_dir = tmp_path / "jobs"
        sibling = jobs_dir / "job-sibling-000001.json"
        sibling.write_text(json.dumps({"id": "job-sibling-000001", "state": "done"}))
        (jobs_dir / "job-sibling-000001.cancel").touch()
        assert {s["id"] for s in manager.shared_jobs()} == {
            job.id,
            "job-sibling-000001",
        }

        own = jobs_dir / f"{job.id}.json"
        _age(own, 120.0)
        _age(sibling, 120.0)
        assert manager.shared_jobs() == []
        assert sorted(p.name for p in jobs_dir.iterdir()) == ["jobs.lock"]
        # The owner still answers for its own job by id, from memory.
        assert manager.load_shared(job.id)["state"] == "done"
    finally:
        manager.shutdown()
