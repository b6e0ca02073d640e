"""Fleet-wide telemetry: cross-process metric shards and trace merging.

PR 8 made ``repro serve`` a pre-fork fleet — one supervisor, N server
workers, plus fork-once collection pool workers — with shared-nothing
memory.  Each process still has exactly one in-memory
:data:`~repro.obs.metrics.REGISTRY` and (optionally) one
:class:`~repro.obs.trace.Tracer`, so ``GET /metrics`` used to report
only the worker that answered and pool/supervisor telemetry was
unreachable.  This module is the spine that makes the observability
plane fleet-wide, using the same coordination substrate everything else
uses: plain files in the shared store directory.

Layout (under the store root)::

    telemetry/metrics/<instance>-<pid>.json   one metric shard per process
    telemetry/traces/<instance>-<pid>.json    one Chrome-trace spill per process
    telemetry/telemetry.lock                  FileLock guarding spill GC

**Metric shards** — every process runs a :class:`ShardWriter`: a daemon
timer thread that atomically rewrites the process's shard (full
:meth:`~repro.obs.metrics.MetricsRegistry.to_shard` snapshot plus a
heartbeat) every ``interval_s`` and once more at exit.  Scrape-time
aggregation (:func:`read_live_shards` + :func:`merge_shards`) merges the
live shards into one fleet view: counters and histogram buckets are
summed; gauges follow their per-metric ``aggregation`` declaration —
``"sum"`` for disjoint per-process values (live jobs), ``"per_worker"``
(one sample per process under a ``worker=<instance>`` label) for gauges
describing a shared resource, so the merged exposition never silently
double-counts.  Shards and trace spills are
:class:`~repro.service.locking.SpillDir` records: a shard is stale once
its pid is dead on this host or its heartbeat is older than its TTL;
trace spills never expire, so ``repro trace --merge`` still sees the
lanes of pool workers that have exited.

**Trace merge** — :func:`merge_traces` stitches per-process Chrome trace
documents into one file: each document's timestamps (relative to its
process's ``perf_counter`` epoch) are rebased onto a common timeline via
the tracer's ``epoch_unix_s`` wall-clock anchor, and ``process_name`` /
``thread_name`` metadata ("M") events label each pid lane so Perfetto
shows supervisor, server workers and pool workers side by side.
Correlation IDs carried in span args join client -> server -> job ->
pool-worker spans end-to-end.

Everything here is purely observational: shards are written off the
request path by a timer thread, nothing consumes randomness or changes
scheduling, and a sharded+traced run's 45-metric matrix stays
bit-identical.
"""

from __future__ import annotations

import atexit
import os
import socket
import threading
import time
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Tracer

__all__ = [
    "SHARD_SCHEMA",
    "ShardWriter",
    "Shard",
    "metrics_dir",
    "traces_dir",
    "load_shard",
    "read_live_shards",
    "gc_stale_shards",
    "merge_shards",
    "render_merged",
    "fleet_status",
    "load_trace_spills",
    "merge_traces",
    "merge_store_traces",
]

_log = get_logger("repro.obs.fleet")

#: Version stamp of the shard file format; readers skip other schemas.
SHARD_SCHEMA = 1

#: Default seconds between periodic shard snapshots.
DEFAULT_INTERVAL_S = 2.0

#: Default shard TTL: a shard whose heartbeat is older than this is
#: presumed dead even when its pid cannot be probed (other host).
DEFAULT_TTL_S = 120.0


def metrics_dir(root: str | Path) -> Path:
    """The metric-shard directory under a store root."""
    return Path(root) / "telemetry" / "metrics"


def traces_dir(root: str | Path) -> Path:
    """The trace-spill directory under a store root."""
    return Path(root) / "telemetry" / "traces"


def _spill_dir(directory: Path, **policy):
    # Imported late: importing repro.service loads the store, whose own
    # imports lead back into repro.obs.
    from repro.service.locking import SpillDir

    return SpillDir(directory, directory.parent / "telemetry.lock", **policy)


def _parse_shard(path: Path, record: dict) -> "Shard | None":
    return Shard(path, record) if record.get("schema") == SHARD_SCHEMA else None


def _parse_trace(_path: Path, document: dict) -> dict | None:
    return document if isinstance(document.get("traceEvents"), list) else None


def _metric_shards(directory: Path):
    return _spill_dir(
        directory, ttl_s=DEFAULT_TTL_S, pid_bound=True, parse=_parse_shard
    )


def _trace_spills(directory: Path):
    return _spill_dir(directory, parse=_parse_trace)


def _atomic_write_json(path: Path, document: dict) -> None:
    """Write ``document`` atomically (tmp file + rename) at ``path``."""
    from repro.service.locking import atomic_write

    atomic_write(path, document)


# -- writing ------------------------------------------------------------------


class ShardWriter:
    """Periodic, atomic snapshots of one process's registry (and tracer).

    Args:
        root: The shared store directory the fleet coordinates through.
        instance: Stable fleet-unique name of this process (becomes the
            ``worker`` label on per-worker gauges and the trace lane
            name).
        role: Coarse process role — ``"server"``, ``"supervisor"`` or
            ``"pool"`` — recorded in the shard and the fleet status.
        registry: The registry to snapshot (the process-wide
            :data:`REGISTRY` by default).
        tracer: When set, the tracer's span buffer is spilled to a
            per-pid Chrome trace file alongside each metric snapshot so
            :func:`merge_traces` can stitch the fleet's lanes together.
        interval_s: Seconds between periodic snapshots.
        ttl_s: Heartbeat TTL stamped into the shard; readers drop the
            shard once the heartbeat is older than this.
    """

    def __init__(
        self,
        root: str | Path,
        instance: str,
        role: str,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        ttl_s: float | None = None,
    ) -> None:
        self.root = Path(root)
        self.instance = instance
        self.role = role
        self.registry = REGISTRY if registry is None else registry
        self.tracer = tracer
        self.interval_s = max(0.05, float(interval_s))
        self.ttl_s = (
            float(ttl_s)
            if ttl_s is not None
            else max(DEFAULT_TTL_S, 10.0 * self.interval_s)
        )
        self._pid = os.getpid()
        self._host = socket.gethostname()
        self._started_s = time.time()
        self._stem = f"{instance}-{self._pid}"
        self._shards = _metric_shards(metrics_dir(self.root))
        self._traces = _trace_spills(traces_dir(self.root))
        self.path = self._shards.path_of(self._stem)
        self.trace_path = self._traces.path_of(self._stem)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._write_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ShardWriter":
        """Write the first snapshot and start the timer thread."""
        self.write_now()
        self._thread = threading.Thread(
            target=self._run, name=f"shard-writer-{self.instance}", daemon=True
        )
        self._thread.start()
        atexit.register(self._at_exit)
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_now()

    def _at_exit(self) -> None:
        # Forked children inherit the registration; only the creating
        # process flushes (the thread is dead in children anyway).
        if os.getpid() == self._pid:
            self.close()

    def close(self) -> None:
        """Stop the timer and write one final snapshot.

        The shard is deliberately *not* deleted: a cleanly exited
        worker's counters stay scrapeable until dead-pid/TTL staleness
        retires the shard, exactly like a Prometheus target going away.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0 * self.interval_s)
        self.write_now()

    # -- snapshots --------------------------------------------------------

    def write_now(self) -> bool:
        """Write the shard (and trace spill) immediately.

        Returns ``False`` instead of raising when the telemetry
        directory is gone (service shutting down, temp store deleted) —
        snapshots are best-effort by design.
        """
        shard = {
            "schema": SHARD_SCHEMA,
            "kind": "metrics-shard",
            "instance": self.instance,
            "role": self.role,
            "pid": self._pid,
            "host": self._host,
            "started_s": round(self._started_s, 3),
            "written_s": round(time.time(), 3),
            "ttl_s": self.ttl_s,
            "interval_s": self.interval_s,
            "metrics": self.registry.to_shard(),
        }
        with self._write_lock:
            try:
                self._shards.write(self._stem, shard)
            except OSError:
                return False
            if self.tracer is not None:
                return self._spill_trace_locked()
        return True

    def spill_trace(self) -> bool:
        """Spill the tracer's buffer to the per-pid trace file now."""
        if self.tracer is None:
            return False
        with self._write_lock:
            return self._spill_trace_locked()

    def _spill_trace_locked(self) -> bool:
        document = self.tracer.to_chrome(instance=self.instance)
        document["otherData"]["role"] = self.role
        try:
            self._traces.write(self._stem, document)
        except OSError:
            return False
        return True


# -- reading ------------------------------------------------------------------


class Shard:
    """One parsed, schema-valid metric shard."""

    __slots__ = (
        "path",
        "instance",
        "role",
        "pid",
        "host",
        "started_s",
        "written_s",
        "ttl_s",
        "metrics",
    )

    def __init__(self, path: Path, record: dict) -> None:
        self.path = path
        self.instance = str(record["instance"])
        self.role = str(record.get("role", "worker"))
        self.pid = int(record["pid"])
        self.host = str(record.get("host", ""))
        self.started_s = float(record.get("started_s", 0.0))
        self.written_s = float(record.get("written_s", 0.0))
        self.ttl_s = float(record.get("ttl_s", DEFAULT_TTL_S))
        self.metrics = dict(record.get("metrics", {}))

    def counter_total(self, name: str) -> float:
        """Sum of one counter/gauge's samples in this shard (0 if absent)."""
        metric = self.metrics.get(name)
        if not isinstance(metric, dict) or "values" not in metric:
            return 0.0
        return float(sum(value for _key, value in metric["values"]))


def load_shard(path: Path) -> Shard | None:
    """Parse one shard file; torn/invalid/foreign-schema -> ``None``."""
    return _metric_shards(path.parent).load(path)


def read_live_shards(root: str | Path, gc: bool = True) -> list[Shard]:
    """Every live shard under ``root``, stale ones excluded (and GC'd).

    Ordered by (role, instance) so merged output is stable regardless of
    directory enumeration order.
    """
    live = _metric_shards(metrics_dir(root)).live(gc=gc)
    live.sort(key=lambda s: (s.role, s.instance, s.pid))
    return live


def gc_stale_shards(
    root: str | Path, candidates: list[Path] | None = None
) -> list[Path]:
    """Remove stale/torn shards under the telemetry lock, exactly once.

    Returns the paths this call actually removed.
    """
    removed = _metric_shards(metrics_dir(root)).gc(candidates)
    if removed:
        _log.info(
            "collected stale metric shards",
            extra={"count": len(removed)},
        )
    return removed


# -- merging ------------------------------------------------------------------


def merge_shards(shards: list[Shard]) -> MetricsRegistry:
    """Aggregate shards into one registry holding the fleet view.

    Counters and histograms (bucket-by-bucket, when bucket bounds agree)
    are summed across shards.  Gauges follow their shard-declared
    ``aggregation``: ``"sum"`` adds the per-process values;
    ``"per_worker"`` (the default) keeps one sample per process under an
    extra ``worker=<instance>`` label.  A shard entry whose kind (or
    histogram bucketing) disagrees with an earlier shard's is skipped —
    mixed-version fleets degrade to the first writer's schema instead of
    corrupting the merge.
    """
    merged = MetricsRegistry()
    for shard in shards:
        for name in sorted(shard.metrics):
            entry = shard.metrics[name]
            if not isinstance(entry, dict):
                continue
            kind = entry.get("kind")
            help_text = str(entry.get("help", ""))
            try:
                if kind == "histogram":
                    _merge_histogram(merged, name, help_text, entry)
                elif kind == "gauge":
                    _merge_gauge(merged, name, help_text, entry, shard.instance)
                elif kind == "counter":
                    _merge_counter(merged, name, help_text, entry)
            except Exception:  # noqa: BLE001 - one bad entry must not
                continue  # poison the whole exposition
    return merged


def _samples(entry: dict) -> list[tuple[tuple[str, ...], float]]:
    return [
        (tuple(str(part) for part in key), float(value))
        for key, value in entry.get("values", [])
    ]


def _merge_counter(merged: MetricsRegistry, name, help_text, entry) -> None:
    labels = tuple(entry.get("labels", ()))
    metric = merged.counter(name, help_text, labels)
    if metric.labelnames != labels:
        return  # kind/shape clash with an earlier shard: skip
    with metric._lock:
        for key, value in _samples(entry):
            metric._values[key] = metric._values.get(key, 0.0) + value


def _merge_gauge(merged, name, help_text, entry, instance: str) -> None:
    aggregation = entry.get("aggregation", "per_worker")
    labels = tuple(entry.get("labels", ()))
    if aggregation == "sum":
        metric = merged.gauge(name, help_text, labels, aggregation="sum")
        if metric.labelnames != labels:
            return
        with metric._lock:
            for key, value in _samples(entry):
                metric._values[key] = metric._values.get(key, 0.0) + value
        return
    worker_labels = labels + ("worker",)
    metric = merged.gauge(name, help_text, worker_labels)
    if metric.labelnames != worker_labels:
        return
    with metric._lock:
        for key, value in _samples(entry):
            metric._values[key + (instance,)] = value


def _merge_histogram(merged: MetricsRegistry, name, help_text, entry) -> None:
    buckets = tuple(float(b) for b in entry.get("buckets", ()))
    counts = [int(c) for c in entry.get("counts", ())]
    if len(counts) != len(buckets) + 1:
        return
    metric = merged.histogram(name, help_text, buckets)
    if metric.buckets != buckets:
        return  # bucket bounds disagree across shard versions: skip
    with metric._lock:
        for index, count in enumerate(counts):
            metric._counts[index] += count
        metric._sum += float(entry.get("sum", 0.0))
        metric._count += int(entry.get("count", 0))


def render_merged(shards: list[Shard]) -> str:
    """The fleet-wide Prometheus text exposition for ``shards``."""
    return merge_shards(shards).render_prometheus()


# -- fleet status -------------------------------------------------------------


def fleet_status(shards: list[Shard], now: float | None = None) -> dict:
    """Per-worker liveness plus fleet totals, for ``GET /fleet``.

    Everything is computed from the shards alone, so any process that
    can read the store directory gets the same answer the serving
    worker would give.
    """
    now = time.time() if now is None else now
    merged = merge_shards(shards)
    workers = []
    uptime_max = 0.0
    for shard in shards:
        uptime = max(0.0, now - shard.started_s)
        uptime_max = max(uptime_max, uptime)
        workers.append(
            {
                "instance": shard.instance,
                "role": shard.role,
                "pid": shard.pid,
                "host": shard.host,
                "alive": True,  # stale shards never reach this list
                "uptime_s": round(uptime, 3),
                "heartbeat_age_s": round(max(0.0, now - shard.written_s), 3),
                "jobs_live": shard.counter_total("repro_jobs_live"),
                "requests_total": shard.counter_total(
                    "repro_http_requests_total"
                ),
                "restarts_total": shard.counter_total(
                    "repro_worker_restarts_total"
                ),
            }
        )

    def _merged_total(name: str) -> float:
        metric = merged.get(name)
        if isinstance(metric, (Counter, Gauge)):
            with metric._lock:
                return float(sum(metric._values.values()))
        return 0.0

    requests_total = _merged_total("repro_http_requests_total")
    latency = merged.get("repro_http_request_seconds")
    quantiles = (
        {
            "p50": round(latency.quantile(0.50), 6),
            "p95": round(latency.quantile(0.95), 6),
            "p99": round(latency.quantile(0.99), 6),
        }
        if isinstance(latency, Histogram) and latency.count
        else {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    )
    return {
        "now_s": round(now, 3),
        "workers": workers,
        "totals": {
            "processes": len(shards),
            "servers": sum(1 for s in shards if s.role == "server"),
            "restarts_total": _merged_total("repro_worker_restarts_total"),
            "jobs_live": _merged_total("repro_jobs_live"),
            "requests_total": requests_total,
            "requests_per_s": round(requests_total / uptime_max, 3)
            if uptime_max > 0
            else 0.0,
            "request_seconds": quantiles,
        },
    }


# -- trace merging ------------------------------------------------------------


def load_trace_spills(root: str | Path) -> list[dict]:
    """Every parseable trace spill under ``root`` (torn files skipped)."""
    return _trace_spills(traces_dir(root)).live()


def merge_traces(documents: list[dict]) -> dict:
    """Stitch per-process Chrome trace documents into one fleet trace.

    Each document's timestamps are microseconds since *its* process's
    monotonic epoch; the ``epoch_unix_s`` anchor in ``otherData`` maps
    that epoch to wall time, so every document is shifted by
    ``(epoch - min(epochs)) * 1e6`` onto one shared timeline.  A
    ``process_name`` metadata event labels each pid lane with the fleet
    instance name (and role), and ``thread_name`` events label each
    (pid, tid) track, which is what makes the merged file legible in
    Perfetto.  Documents without an anchor are left unshifted.
    """
    epochs = [
        float(doc["otherData"]["epoch_unix_s"])
        for doc in documents
        if isinstance(doc.get("otherData"), dict)
        and "epoch_unix_s" in doc["otherData"]
    ]
    base = min(epochs) if epochs else 0.0
    events: list[dict] = []
    lanes: dict[int, str] = {}
    tids: dict[int, set[int]] = {}
    for doc in documents:
        other = doc.get("otherData") or {}
        epoch = float(other.get("epoch_unix_s", base))
        offset_us = (epoch - base) * 1e6
        for event in doc.get("traceEvents", []):
            if not isinstance(event, dict) or event.get("ph") == "M":
                continue
            shifted = dict(event)
            if isinstance(shifted.get("ts"), (int, float)):
                shifted["ts"] = round(shifted["ts"] + offset_us, 3)
            pid = shifted.get("pid")
            tid = shifted.get("tid")
            if isinstance(pid, int):
                if isinstance(other.get("instance"), str):
                    label = other["instance"]
                    role = other.get("role")
                    lanes[pid] = f"{label} ({role})" if role else label
                else:
                    lanes.setdefault(pid, f"pid-{pid}")
                if isinstance(tid, int):
                    tids.setdefault(pid, set()).add(tid)
            events.append(shifted)
    events.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0)))

    metadata: list[dict] = []
    for pid in sorted(lanes):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": lanes[pid]},
            }
        )
        for index, tid in enumerate(sorted(tids.get(pid, ()))):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": "main" if index == 0 else f"t{index}"},
                }
            )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.fleet",
            "merged_documents": len(documents),
            "pids": sorted(lanes),
        },
    }


def merge_store_traces(
    root: str | Path, extra: list[dict] | None = None
) -> dict:
    """Merge every trace spill under ``root`` (plus ``extra`` documents)."""
    documents = load_trace_spills(root)
    if extra:
        documents = documents + list(extra)
    return merge_traces(documents)
