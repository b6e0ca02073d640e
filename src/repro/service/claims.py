"""Cross-process single-flight via on-disk claim records.

The in-process :class:`~repro.service.jobs.JobManager` already
deduplicates identical collection requests; claim records extend that
guarantee across *processes* sharing one store directory (the pre-fork
service workers).  Before running a collection, a worker must hold the
key's claim:

``<store root>/claims/<key>.claim``
    One JSON record — owner token, pid, host, claim time, TTL — written
    to a temp file and hard-linked into place, so exactly one process
    wins and the record is complete from its first instant.  Losers
    wait for the claim to clear and then hydrate the winner's result
    from the store instead of re-running engines.

``<store root>/claims/runs.log``
    Append-only journal of *actual* (non-hydrated) collection runs, one
    JSON line per run.  A key appearing twice is a duplicate
    characterization — the thing this module exists to prevent — and
    increments ``repro_duplicate_collections_total``.  The service
    benchmark asserts the log stays duplicate-free under many-client,
    many-worker load.

Staleness: the claims directory is a pid-bound, TTL-bound
:class:`~repro.service.locking.SpillDir`.  A claim whose TTL has
expired, or whose owning pid is dead on this host, is *broken* (removed
under the registry's file lock) so a crashed claimant never wedges the
fleet; an unreadable claim counts as held until it is older than the
TTL, then it is broken too.  Live claimants running long collections
call :meth:`ClaimRegistry.refresh` from their progress callback to push
the TTL window forward.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.locking import SpillDir

__all__ = ["Claim", "ClaimRegistry"]

_log = get_logger("repro.service.claims")

_CLAIMS_ACQUIRED = REGISTRY.counter(
    "repro_claims_acquired_total",
    "Cross-process collection claims successfully acquired",
)
_CLAIMS_WAITED = REGISTRY.counter(
    "repro_claims_waited_total",
    "Claim acquisitions that found a live sibling claim and waited",
)
_CLAIMS_BROKEN = REGISTRY.counter(
    "repro_claims_broken_total",
    "Stale claims (expired TTL or dead owner) broken by a taker-over",
)
_RUNS_RECORDED = REGISTRY.counter(
    "repro_collections_run_total",
    "Actual (non-hydrated) collections recorded in the shared run log",
)
_DUPLICATE_RUNS = REGISTRY.counter(
    "repro_duplicate_collections_total",
    "Collections that ran for a key the shared run log had already seen",
)


@dataclass(frozen=True)
class Claim:
    """A held claim: proof this process may run ``key``'s collection."""

    key: str
    token: str
    path: Path
    acquired_s: float


class ClaimRegistry:
    """Claim records + run log under one shared store root.

    Args:
        root: The store directory the claims guard (claims live in a
            ``claims/`` subdirectory of it).
        ttl_s: Seconds a claim stays valid without a refresh; a claim
            older than this is presumed crashed and may be broken.
    """

    def __init__(self, root: str | Path, ttl_s: float = 900.0) -> None:
        self.root = Path(root)
        self.ttl_s = float(ttl_s)
        self._dir = self.root / "claims"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._claims = SpillDir(
            self._dir,
            self._dir / "claims.lock",
            ttl_s=self.ttl_s,
            pid_bound=True,
            clock="claimed_s",
            suffix=".claim",
        )
        self._lock = self._claims.lock
        self._runs_log = self._dir / "runs.log"
        self._host = socket.gethostname()
        self._thread_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self._claims.path_of(key)

    def _break_stale(self, key: str) -> bool:
        """Remove ``key``'s claim if stale (exactly once across processes)."""
        broken = self._claims.gc([self._path(key)])
        if broken:
            _CLAIMS_BROKEN.inc()
            _log.warning("broke stale claim", extra={"key": key})
        return bool(broken)

    # -- claiming -------------------------------------------------------------

    def acquire(self, key: str) -> Claim | None:
        """Try to claim ``key``; ``None`` means a live sibling holds it.

        A stale claim (expired, dead owner, or unreadable past the TTL)
        is broken and the acquire retried, so one crashed worker costs
        one TTL at most — not a permanently wedged key.
        """
        token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        for _attempt in range(8):
            now = time.time()
            record = {
                "key": key,
                "token": token,
                "pid": os.getpid(),
                "host": self._host,
                "claimed_s": now,
                "ttl_s": self.ttl_s,
            }
            if self._claims.write(key, record, exclusive=True):
                _CLAIMS_ACQUIRED.inc()
                return Claim(
                    key=key, token=token, path=self._path(key), acquired_s=now
                )
            if not self._break_stale(key) and self._path(key).exists():
                return None  # held by a live (or still-young torn) claim
        return None  # pragma: no cover - pathological churn

    def refresh(self, claim: Claim) -> None:
        """Push the claim's TTL window forward (long collections call
        this from their progress feed)."""
        with self._lock:
            record = self._claims.load(claim.path)
            if record is None or record.get("token") != claim.token:
                return  # broken by a sibling; nothing left to refresh
            record["claimed_s"] = time.time()
            self._claims.write(claim.key, record)

    def release(self, claim: Claim) -> None:
        """Drop the claim if we still own it (token-verified)."""
        with self._lock:
            record = self._claims.load(claim.path)
            if record is not None and record.get("token") == claim.token:
                claim.path.unlink(missing_ok=True)

    def holder(self, key: str) -> dict | None:
        """The live claim record for ``key``, or ``None``."""
        live = self._claims.live([self._path(key)], gc=False)
        return live[0] if live else None

    def wait(
        self,
        key: str,
        timeout: float,
        poll_s: float = 0.05,
        cancel: threading.Event | None = None,
    ) -> bool:
        """Block until ``key`` has no live claim (returns ``True``) or
        ``timeout``/``cancel`` interrupts the wait (``False``).

        A claim that goes stale while we wait is broken here — the
        waiter is exactly the process that should take over a crashed
        claimant's work.  An unreadable claim is held until it expires.
        """
        _CLAIMS_WAITED.inc()
        deadline = time.monotonic() + timeout
        while True:
            if self._break_stale(key) or not self._path(key).exists():
                return True
            if cancel is not None and cancel.is_set():
                return False
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if cancel is not None:
                cancel.wait(min(poll_s, remaining))
            else:
                time.sleep(min(poll_s, remaining))

    # -- run accounting -------------------------------------------------------

    def record_run(self, key: str) -> bool:
        """Journal one actual collection run; returns ``False`` (and
        bumps the duplicate counter) if ``key`` had already run."""
        with self._thread_lock, self._lock:
            duplicate = any(run["key"] == key for run in self.runs())
            line = json.dumps(
                {
                    "key": key,
                    "pid": os.getpid(),
                    "host": self._host,
                    "t_s": round(time.time(), 3),
                },
                sort_keys=True,
            )
            with open(self._runs_log, "a+", encoding="utf-8") as handle:
                # A writer that crashed mid-line leaves a torn tail with
                # no newline; appending straight after it would fuse the
                # two records into one unparseable line.  Terminate the
                # orphan first so this record survives on its own line.
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(handle.tell() - 1)
                    if handle.read(1) != "\n":
                        handle.write("\n")
                handle.write(line + "\n")
        _RUNS_RECORDED.inc()
        if duplicate:
            _DUPLICATE_RUNS.inc()
            _log.warning("duplicate collection run", extra={"key": key})
        return not duplicate

    def runs(self) -> list[dict]:
        """Every journaled run, in append order."""
        try:
            text = self._runs_log.read_text()
        except FileNotFoundError:
            return []
        runs = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a crashed writer
            if isinstance(record, dict) and "key" in record:
                runs.append(record)
        return runs

    def duplicate_runs(self) -> dict[str, int]:
        """Keys that ran more than once, mapped to their run counts."""
        counts: dict[str, int] = {}
        for run in self.runs():
            counts[run["key"]] = counts.get(run["key"], 0) + 1
        return {key: count for key, count in counts.items() if count > 1}
