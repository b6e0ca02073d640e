"""Persistent, content-addressed characterization store.

Every expensive artifact the cluster layer produces — a full
:class:`~repro.cluster.testbed.WorkloadCharacterization` or a whole
suite's metric matrix — is persisted here as one JSON object under a
deterministic key, so later processes (the HTTP service, the benchmark
harness, a fresh CLI invocation) reuse it instead of re-running engines
and simulators.

Layout of a store rooted at ``<root>``::

    <root>/index.json           schema stamp + per-entry LRU metadata
    <root>/objects/<key>.json   one canonical-JSON object per entry

Guarantees:

- **Atomic writes** — objects and the index are written to a temp file
  in the same directory and ``os.replace``\\ d into place, so a reader
  (or a concurrent writer in another process) never observes a torn
  file.
- **Cross-process index integrity** — every read-modify-write of the
  index (``put``/``adopt``/LRU touch/``remove``/eviction) happens under
  an advisory file lock (``<root>/index.lock``), so two processes
  sharing one store directory never lose each other's updates.  Pure
  reads stay lock-free: they consume the last atomically-replaced
  index, revalidated by a single ``stat`` call per request.
- **Content addressing** — every object's canonical JSON bytes are
  hashed (sha256); the hash is stored in the index and doubles as the
  HTTP ETag.  A hash mismatch on read is treated as corruption and the
  entry is dropped rather than served.
- **Schema versioning** — objects carry a ``schema`` stamp; entries
  written by an incompatible revision are ignored, never mis-parsed.
- **LRU bounding** — the index tracks a logical clock per entry; when
  ``max_entries`` (or ``max_bytes``) is exceeded the least recently
  used entries are evicted.

The store deliberately knows nothing about *what* the payloads mean.
Key naming and (de)serialization of characterizations live with their
owners (:mod:`repro.cluster.collection` and the helpers below).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

import numpy as np

from repro.cluster.testbed import WorkloadCharacterization
from repro.errors import StoreError
from repro.service.locking import FileLock, atomic_write
from repro.obs.flight import DEFAULT_CAPACITY
from repro.obs.metrics import REGISTRY
from repro.obs.timeline import TimelineSeries
from repro.stacks.base import ExecutionTrace, PhaseKind, PhaseRecord, StackInfo
from repro.workloads.base import WorkloadRun

__all__ = [
    "SCHEMA_VERSION",
    "COMPATIBLE_SCHEMAS",
    "ResultStore",
    "resolve_cache_dir",
    "characterization_to_payload",
    "characterization_from_payload",
]

#: Bump when the on-disk object layout changes incompatibly; stale
#: entries are silently treated as cache misses, never mis-parsed.
#: v3: phase records carry a recovery ``tag``; characterizations carry
#: ``attempts`` and a ``faults`` tally.
#: v4: characterizations carry flight-recorder ``events``.
#: v5: characterizations carry an optional ``timeline`` series and the
#: flight ring's ``events_capacity``.  Purely additive — every v4 entry
#: remains readable (see :data:`COMPATIBLE_SCHEMAS`), hydrating with no
#: timeline and the historical default capacity.
SCHEMA_VERSION = 5

#: Schema stamps this revision can still read.  New writes always carry
#: :data:`SCHEMA_VERSION`; v4 objects hydrate without re-running
#: workloads because v5 only *added* optional fields.
COMPATIBLE_SCHEMAS = frozenset({4, SCHEMA_VERSION})

_STORE_HITS = REGISTRY.counter(
    "repro_store_hits_total", "Result-store reads that found a valid entry"
)
_STORE_MISSES = REGISTRY.counter(
    "repro_store_misses_total",
    "Result-store reads that missed (absent, torn, or stale entry)",
)
_STORE_PUTS = REGISTRY.counter(
    "repro_store_puts_total", "Objects written to the result store"
)
_STORE_EVICTIONS = REGISTRY.counter(
    "repro_store_evictions_total", "Entries evicted by the store's LRU bound"
)
_STORE_ENTRIES = REGISTRY.gauge(
    "repro_store_entries", "Entries currently indexed by the result store"
)
_STORE_BYTES = REGISTRY.gauge(
    "repro_store_bytes", "Total object bytes currently indexed by the store"
)

#: Environment variable redirecting all artifact writes (store, legacy
#: collection cache, benchmark session cache) to one directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_KEY_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def resolve_cache_dir(explicit: str | Path | None = None) -> Path | None:
    """The artifact directory to use: explicit argument, else ``REPRO_CACHE_DIR``.

    Returns ``None`` when neither is set — callers then skip persistence
    entirely, preserving the historical default of no disk writes.
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def _canonical_dumps(payload: dict) -> bytes:
    """Deterministic JSON bytes — the unit of content addressing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ResultStore:
    """A versioned, LRU-bounded, content-addressed result store.

    Safe for concurrent use by threads *and* processes sharing one
    directory: all index mutation is serialized through an advisory
    file lock (held only for the microseconds of one read-modify-write),
    and the index itself is consulted through a ``stat``-revalidated
    cache, so lock-free read paths cost one syscall rather than a JSON
    parse per request.
    """

    def __init__(
        self,
        root: str | Path,
        max_entries: int = 256,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise StoreError("max_entries must be at least 1")
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"
        #: Serializes index read-modify-writes across processes.  Held
        #: around every mutation; never around object-payload I/O of
        #: already-indexed entries.
        self._index_lock = FileLock(self.root / "index.lock")
        #: Parsed-index cache: ``(stat_key, index)``.  The cached dict is
        #: read-only by convention — mutators always re-read from disk
        #: under the index lock.
        self._cached: tuple[tuple, dict] | None = None

    # -- index ----------------------------------------------------------------

    def _stat_key(self) -> tuple | None:
        """Identity of the current index file: ``(inode, size, mtime_ns)``.

        ``os.replace`` installs a fresh inode on every write, so any
        sibling-process update changes this key even within one mtime
        granule.
        """
        try:
            stat = os.stat(self._index_path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _parse_index(self) -> dict:
        try:
            index = json.loads(self._index_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {"schema": SCHEMA_VERSION, "clock": 0, "entries": {}}
        if index.get("schema") not in COMPATIBLE_SCHEMAS:
            # An incompatible revision wrote here: start fresh rather
            # than guess at old entries' meaning.
            return {"schema": SCHEMA_VERSION, "clock": 0, "entries": {}}
        # Compatible older stamp (e.g. v4): adopt the current version so
        # subsequent index writes are stamped with what we write.
        index["schema"] = SCHEMA_VERSION
        return index

    def _read_index(self) -> dict:
        """A fresh, mutable parse of the on-disk index.

        Callers that intend to write back MUST hold :attr:`_index_lock`
        across the read *and* the write — re-reading inside the lock is
        what makes concurrent processes merge instead of clobber.
        """
        index = self._parse_index()
        return index

    def _read_index_cached(self) -> dict:
        """The current index for read-only use (one ``stat`` when warm).

        The returned dict must not be mutated: it is shared across
        threads until a sibling (or this process) replaces the file.
        """
        key = self._stat_key()
        with self._lock:
            cached = self._cached
            if cached is not None and cached[0] == key:
                return cached[1]
        index = self._parse_index()
        with self._lock:
            self._cached = (key, index)
        return index

    def _write_index(self, index: dict) -> None:
        atomic_write(self._index_path, json.dumps(index, sort_keys=True).encode())
        with self._lock:
            self._cached = (self._stat_key(), index)
        entries = index["entries"]
        _STORE_ENTRIES.set(len(entries))
        _STORE_BYTES.set(sum(e["bytes"] for e in entries.values()))

    def _object_path(self, key: str) -> Path:
        if not key or not set(key) <= _KEY_SAFE:
            raise StoreError(f"invalid store key {key!r}")
        return self._objects / f"{key}.json"

    # -- public API -----------------------------------------------------------

    def put(self, key: str, payload: dict) -> str:
        """Persist ``payload`` under ``key``; returns its content hash.

        The payload is stamped with the schema version, written
        atomically, indexed, and old entries are evicted LRU if the
        store exceeds its bounds.
        """
        stamped = dict(payload)
        stamped["schema"] = SCHEMA_VERSION
        data = _canonical_dumps(stamped)
        digest = _content_hash(data)
        _STORE_PUTS.inc()
        with self._index_lock:
            atomic_write(self._object_path(key), data)
            index = self._read_index()
            index["clock"] += 1
            index["entries"][key] = {
                "hash": digest,
                "bytes": len(data),
                "last_used": index["clock"],
            }
            self._evict(index, keep=key)
            self._write_index(index)
        return digest

    def put_object(self, key: str, payload: dict) -> tuple[str, int]:
        """Write ``key``'s object file only — no index mutation.

        The worker-side half of a two-phase put: a pool worker persists
        its (possibly large) payload straight to disk and ships the
        parent just ``(key, digest, nbytes)``; the parent — the single
        index writer — then :meth:`adopt`\\ s the entry.  Keeping all
        index mutation in one process means concurrent workers never
        race last-writer-wins on ``index.json``.

        Returns:
            ``(digest, nbytes)`` of the canonical bytes written.
        """
        stamped = dict(payload)
        stamped["schema"] = SCHEMA_VERSION
        data = _canonical_dumps(stamped)
        digest = _content_hash(data)
        _STORE_PUTS.inc()
        atomic_write(self._object_path(key), data)
        return digest, len(data)

    def adopt(self, key: str, digest: str, nbytes: int) -> None:
        """Index an object written elsewhere via :meth:`put_object`.

        Raises:
            StoreError: If the object file is absent or its content hash
                does not match ``digest`` (a torn or missing write must
                fail loudly here, not surface later as a silent miss).
        """
        with self._index_lock:
            try:
                data = self._object_path(key).read_bytes()
            except FileNotFoundError:
                raise StoreError(f"adopt: no object file for key {key!r}")
            if _content_hash(data) != digest:
                raise StoreError(f"adopt: content hash mismatch for key {key!r}")
            index = self._read_index()
            index["clock"] += 1
            index["entries"][key] = {
                "hash": digest,
                "bytes": nbytes,
                "last_used": index["clock"],
            }
            self._evict(index, keep=key)
            self._write_index(index)

    def get_raw(self, key: str, touch: bool = True) -> tuple[bytes, str] | None:
        """The stored bytes and content hash for ``key``, or ``None``.

        Verifies the content hash; a mismatch (torn or tampered object)
        drops the entry and reads as a miss.  A blob a sibling process
        evicted between our index read and the blob read is likewise a
        miss (its stale index entry is dropped), never an exception.
        ``touch=False`` skips the LRU bookkeeping write — used on
        request-serving hot paths, which then run entirely lock-free.
        """
        if touch:
            with self._index_lock:
                index = self._read_index()
                entry = index["entries"].get(key)
                if entry is None:
                    _STORE_MISSES.inc()
                    return None
                try:
                    data = self._object_path(key).read_bytes()
                except FileNotFoundError:
                    del index["entries"][key]
                    self._write_index(index)
                    _STORE_MISSES.inc()
                    return None
                if _content_hash(data) != entry["hash"]:
                    self._drop(index, key)
                    _STORE_MISSES.inc()
                    return None
                index["clock"] += 1
                entry["last_used"] = index["clock"]
                self._write_index(index)
            _STORE_HITS.inc()
            return data, entry["hash"]
        index = self._read_index_cached()
        entry = index["entries"].get(key)
        if entry is None:
            _STORE_MISSES.inc()
            return None
        try:
            data = self._object_path(key).read_bytes()
        except FileNotFoundError:
            # A sibling evicted the blob after writing the index we
            # read.  Drop the stale entry (under the lock, against a
            # fresh index — never resurrecting the sibling's state).
            self._drop_stale(key, entry["hash"])
            _STORE_MISSES.inc()
            return None
        if _content_hash(data) != entry["hash"]:
            self._drop_stale(key, entry["hash"])
            _STORE_MISSES.inc()
            return None
        _STORE_HITS.inc()
        return data, entry["hash"]

    def get(self, key: str, touch: bool = True) -> dict | None:
        """The decoded payload for ``key``, or ``None`` on any miss.

        Objects stamped with an incompatible schema version read as
        misses; compatible older stamps (v4) decode normally.
        """
        raw = self.get_raw(key, touch=touch)
        if raw is None:
            return None
        payload = json.loads(raw[0].decode("utf-8"))
        if payload.get("schema") not in COMPATIBLE_SCHEMAS:
            _STORE_MISSES.inc()
            return None
        return payload

    def etag(self, key: str) -> str | None:
        """The content hash of ``key``'s entry (the HTTP ETag), if present.

        Lock-free: one ``stat`` plus a dict lookup when the index is
        unchanged since the last read — cheap enough for per-request
        revalidation on serving hot paths.
        """
        entry = self._read_index_cached()["entries"].get(key)
        return entry["hash"] if entry else None

    def keys(self) -> tuple[str, ...]:
        return tuple(self._read_index_cached()["entries"])

    def remove(self, key: str) -> bool:
        """Delete ``key``'s entry; returns whether it existed."""
        with self._index_lock:
            index = self._read_index()
            if key not in index["entries"]:
                return False
            self._drop(index, key)
        return True

    def total_bytes(self) -> int:
        entries = self._read_index_cached()["entries"]
        return sum(e["bytes"] for e in entries.values())

    def __len__(self) -> int:
        return len(self.keys())

    # -- internals ------------------------------------------------------------

    def _drop(self, index: dict, key: str) -> None:
        """Remove ``key`` from a freshly-read index (lock held by caller)."""
        del index["entries"][key]
        self._write_index(index)
        try:
            self._object_path(key).unlink()
        except OSError:
            pass

    def _drop_stale(self, key: str, expected_hash: str) -> None:
        """Drop ``key``'s index entry if it still carries ``expected_hash``.

        Used by lock-free read paths that discovered a vanished or
        corrupt blob: the index is re-read *under the lock* so a
        concurrent sibling update (including a fresh re-put of the same
        key) is never clobbered or resurrected.
        """
        with self._index_lock:
            index = self._read_index()
            entry = index["entries"].get(key)
            if entry is None or entry["hash"] != expected_hash:
                return  # a sibling already dropped or replaced it
            self._drop(index, key)

    def _evict(self, index: dict, keep: str) -> None:
        """Evict least-recently-used entries until within bounds."""

        def over_budget() -> bool:
            entries = index["entries"]
            if len(entries) > self.max_entries:
                return True
            if self.max_bytes is not None:
                return sum(e["bytes"] for e in entries.values()) > self.max_bytes
            return False

        while over_budget():
            victims = [k for k in index["entries"] if k != keep]
            if not victims:
                return
            victim = min(victims, key=lambda k: index["entries"][k]["last_used"])
            del index["entries"][victim]
            _STORE_EVICTIONS.inc()
            try:
                self._object_path(victim).unlink()
            except OSError:
                pass


# -- characterization (de)serialization ---------------------------------------
#
# A stored characterization is *complete*: metrics, per-slave detail and
# the underlying run (trace records, stack facts, correctness checks),
# so cache hits hydrate objects indistinguishable from a fresh
# collection — the historical "details are not cached" gap is closed.


def characterization_to_payload(char: WorkloadCharacterization) -> dict:
    """A JSON-safe dict capturing the characterization in full."""
    trace = char.run.trace
    stack = trace.stack
    return {
        "kind": "characterization",
        "name": char.name,
        "attempts": char.attempts,
        "faults": char.faults,
        "events": [dict(event) for event in char.events],
        "events_capacity": char.events_capacity,
        "timeline": (
            char.timeline.to_payload() if char.timeline is not None else None
        ),
        "metrics": {k: float(v) for k, v in char.metrics.items()},
        "per_slave": [
            {k: float(v) for k, v in slave.items()} for slave in char.per_slave
        ],
        "run": {
            "output_records": char.run.output_records,
            "checks": {k: float(v) for k, v in char.run.checks.items()},
            "trace": {
                "workload": trace.workload,
                "stack": {
                    "name": stack.name,
                    "source_bytes": stack.source_bytes,
                    "hot_code_bytes": stack.hot_code_bytes,
                    "tasks_share_process": stack.tasks_share_process,
                    "jvm_uops_factor": stack.jvm_uops_factor,
                    "kernel_io_weight": stack.kernel_io_weight,
                },
                "records": [
                    {
                        "kind": record.kind.value,
                        "name": record.name,
                        "worker": record.worker,
                        "records_in": record.records_in,
                        "bytes_in": record.bytes_in,
                        "records_out": record.records_out,
                        "bytes_out": record.bytes_out,
                        "details": {
                            k: float(v) for k, v in record.details.items()
                        },
                        "tag": record.tag,
                    }
                    for record in trace.records
                ],
            },
        },
    }


def characterization_from_payload(payload: dict) -> WorkloadCharacterization:
    """Rebuild the full characterization written by
    :func:`characterization_to_payload`.

    Raises:
        StoreError: If the payload is not a characterization object.
    """
    if payload.get("kind") != "characterization":
        raise StoreError(
            f"expected a characterization payload, got kind={payload.get('kind')!r}"
        )
    run = payload["run"]
    traced = run["trace"]
    trace = ExecutionTrace(
        stack=StackInfo(**traced["stack"]), workload=traced["workload"]
    )
    for record in traced["records"]:
        trace.add(
            PhaseRecord(
                kind=PhaseKind(record["kind"]),
                name=record["name"],
                worker=record["worker"],
                records_in=record["records_in"],
                bytes_in=record["bytes_in"],
                records_out=record["records_out"],
                bytes_out=record["bytes_out"],
                details=dict(record["details"]),
                tag=record.get("tag", ""),
            )
        )
    metrics = {k: float(v) for k, v in payload["metrics"].items()}
    per_slave = tuple(
        {k: float(v) for k, v in slave.items()} for slave in payload["per_slave"]
    )
    if not all(np.isfinite(list(metrics.values()))):
        raise StoreError(f"{payload['name']}: non-finite metrics in stored payload")
    return WorkloadCharacterization(
        name=payload["name"],
        metrics=metrics,
        per_slave=per_slave,
        run=WorkloadRun(
            trace=trace,
            output_records=run["output_records"],
            checks=dict(run["checks"]),
        ),
        attempts=int(payload.get("attempts", 1)),
        faults=payload.get("faults"),
        events=tuple(dict(event) for event in payload.get("events", ())),
        # v4 entries predate both fields: hydrate with the historical
        # default capacity and no timeline (never a re-run).
        events_capacity=int(payload.get("events_capacity", DEFAULT_CAPACITY)),
        timeline=(
            TimelineSeries.from_payload(payload["timeline"])
            if payload.get("timeline") is not None
            else None
        ),
    )
