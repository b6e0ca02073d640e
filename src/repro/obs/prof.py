"""Continuous statistical CPU profiling with span attribution.

The paper's method is profiling workloads; this module turns the same
lens on the reproduction's own fleet.  A :class:`Profiler` samples every
thread's Python stack at a fixed interval and charges each sample to the
thread's **live span path** (:func:`repro.obs.trace.span_paths`), so a
profile answers "which phase of which workload burned the time" —
``pool:characterize:H-Sort`` / ``simulate`` — and not just "which
function".  Everything is stdlib-only and purely observational: sampling
reads frames and span names, consumes no randomness, and changes no
scheduling decision, so a characterization with profiling enabled stays
bit-identical to one without.

**Sampler protocol.**  Two clocks drive the sampler:

- ``signal`` — ``signal.setitimer`` fires ``SIGALRM`` (wall mode) or
  ``SIGPROF`` (CPU mode, counts only when the process is on-CPU) every
  ``interval_ms``; the Python handler walks ``sys._current_frames()``.
  CPython only allows handler installation from the **main thread**, so
  installation is split out as the *arm protocol*: :func:`arm` installs
  the handlers (a no-op returning ``False`` off the main thread) and is
  called once at every process entry point — CLI main, supervisor,
  forked server worker, pool worker — after which ``setitimer`` itself
  may be called from *any* thread, making start/stop safe from HTTP
  handler threads and the profile agent.
- ``thread`` — a daemon thread samples on an ``Event.wait`` timer; the
  fallback when the process never armed (e.g. a server embedded in a
  test's background thread).  Wall mode only.

Samples whose leaf frame sits in a known blocking stdlib module
(``threading.py``, ``selectors.py``, ``queue.py``, ...) are classified
*idle*: parked worker loops and accept/poll waits.  Attribution quality
is judged on the busy remainder — see :func:`attribution`.

**Fleet integration.**  Each process runs a :class:`ProfileAgent`
(daemon thread) that watches ``<store>/telemetry/profiles/request.json``.
Any worker answering ``GET /profile?seconds=N`` publishes a request
window through :func:`request_profile` (concurrent requests join the
in-flight window), every agent samples for the window and spills a
per-pid profile document next to the request (a
:class:`~repro.service.locking.SpillDir` record with a TTL-only
staleness policy), and the serving worker merges the spills with
:func:`collect_fleet_profile`.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
import uuid
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span_paths

__all__ = [
    "PROFILE_SCHEMA",
    "Profiler",
    "ProfilerError",
    "arm",
    "armed",
    "ProfileAgent",
    "profiles_dir",
    "profile_request_path",
    "request_profile",
    "current_request",
    "spill_profile",
    "read_profile_docs",
    "gc_stale_profiles",
    "collect_fleet_profile",
    "merge_profile_docs",
    "collapsed_stacks",
    "iter_stacks",
    "span_totals",
    "attribution",
    "validate_profile",
]

_log = get_logger("repro.obs.prof")

#: Version stamp of profile documents; readers skip other schemas.
PROFILE_SCHEMA = 1

#: Default / maximum on-demand sampling window (seconds).
DEFAULT_WINDOW_S = 3.0
MAX_WINDOW_S = 30.0

#: Default sampling interval; 5ms = 200Hz, cheap enough to leave the
#: fleet responsive while a window is open.
DEFAULT_INTERVAL_MS = 5.0

#: How long a spilled profile stays readable before staleness GC.
DEFAULT_PROFILE_TTL_S = 120.0

#: Deepest stack recorded per sample; frames below the cut are dropped
#: from the root end (the leaf is what a profile is about).
MAX_STACK_DEPTH = 64

#: A sample whose *leaf* frame lives in one of these stdlib files is a
#: parked thread (lock/queue/select wait), not CPU work.
_IDLE_BASENAMES = frozenset(
    {
        "threading.py",
        "selectors.py",
        "queue.py",
        "socket.py",
        "socketserver.py",
        "ssl.py",
        "connection.py",
        "synchronize.py",
        "process.py",
        "popen_fork.py",
        "subprocess.py",
    }
)

#: Roots used for samples with no live span path.
UNATTRIBUTED_BUSY = "(untracked)"
UNATTRIBUTED_IDLE = "(idle)"

_LABEL_CACHE: dict[object, str] = {}
_PROF_FILE = __file__


class ProfilerError(RuntimeError):
    """Profiler misuse: double-start, CPU mode without the arm, ..."""


# -- the arm protocol ---------------------------------------------------------

_STATE_LOCK = threading.Lock()
_ARMED = False
_ACTIVE: "Profiler | None" = None


def _reset_after_fork() -> None:
    # The forked child inherits installed handlers (kept: _ARMED stays
    # valid) but not the parent's itimer or its in-flight profiler.
    global _ACTIVE
    _ACTIVE = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)


#: Set while a tick samples.  ``sys._current_frames()`` holds the
#: runtime's thread-list lock and may run the garbage collector, whose
#: weakref callbacks let a second tick fire inside the first; sampling
#: again there would wait on that lock forever.
_IN_TICK = False


def _on_tick(signum, frame) -> None:
    global _IN_TICK
    profiler = _ACTIVE
    if profiler is None or _IN_TICK:
        return
    _IN_TICK = True
    try:
        profiler._sample(signal_frame=frame)
    finally:
        _IN_TICK = False


def arm() -> bool:
    """Install the profiling signal handlers (main thread only).

    Idempotent and cheap; returns ``True`` once the handlers are in
    place.  Called from a non-main thread — or on a platform without
    ``setitimer`` — it returns ``False`` and the profiler falls back to
    its thread clock.
    """
    global _ARMED
    if _ARMED:
        return True
    if not hasattr(signal, "setitimer"):  # pragma: no cover - POSIX only
        return False
    if threading.current_thread() is not threading.main_thread():
        return False
    try:
        signal.signal(signal.SIGALRM, _on_tick)
        signal.signal(signal.SIGPROF, _on_tick)
    except (ValueError, OSError):  # pragma: no cover - defensive
        return False
    _ARMED = True
    return True


def armed() -> bool:
    """Whether this process's signal handlers are installed."""
    return _ARMED


# -- frame extraction ---------------------------------------------------------


def _frame_label(code) -> str:
    label = _LABEL_CACHE.get(code)
    if label is None:
        name = getattr(code, "co_qualname", code.co_name)
        parts = code.co_filename.replace("\\", "/").rsplit("/", 3)
        short = "/".join(parts[-2:])
        label = f"{short}:{name}"
        _LABEL_CACHE[code] = label
    return label


def _extract_stack(frame) -> tuple[tuple[str, ...], bool]:
    """(root-first frame labels, leaf-is-idle) for one thread's frame."""
    labels: list[str] = []
    idle = False
    depth = 0
    leaf_seen = False
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        if code.co_filename != _PROF_FILE:
            if not leaf_seen:
                leaf_seen = True
                basename = code.co_filename.rpartition("/")[2]
                idle = basename in _IDLE_BASENAMES
            labels.append(_frame_label(code))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels), idle


# -- the profiler -------------------------------------------------------------


class Profiler:
    """One statistical sampling window over every thread in the process.

    Args:
        mode: ``"wall"`` samples on elapsed time (parked threads appear
            and are flagged idle); ``"cpu"`` samples on consumed CPU
            time via ``ITIMER_PROF`` and requires the signal clock.
        interval_ms: Sampling period.
        clock: ``"auto"`` uses the signal clock when this process is
            :func:`armed <arm>` (arming on the fly when running on the
            main thread) and the thread clock otherwise; ``"signal"`` /
            ``"thread"`` force one.
        instance: Fleet instance name stamped into the document.
        role: Fleet role stamped into the document.
    """

    def __init__(
        self,
        mode: str = "wall",
        interval_ms: float = DEFAULT_INTERVAL_MS,
        clock: str = "auto",
        instance: str | None = None,
        role: str | None = None,
    ) -> None:
        if mode not in ("wall", "cpu"):
            raise ValueError(f"unknown profiler mode {mode!r}")
        if clock not in ("auto", "signal", "thread"):
            raise ValueError(f"unknown profiler clock {clock!r}")
        self.mode = mode
        self.interval_ms = min(100.0, max(1.0, float(interval_ms)))
        self.instance = instance or f"pid-{os.getpid()}"
        self.role = role or "process"
        self._clock_requested = clock
        self.clock: str | None = None
        self._counts: dict[tuple[tuple[str, ...], tuple[str, ...], bool], int] = {}
        self._ticks = 0
        self._started_unix = 0.0
        self._started_mono = 0.0
        self.duration_s = 0.0
        self._running = False
        self._sampler_tid: int | None = None
        self._main_tid = threading.main_thread().ident
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.document: dict | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Profiler":
        global _ACTIVE
        with _STATE_LOCK:
            if self._running:
                raise ProfilerError("profiler already started")
            if _ACTIVE is not None:
                raise ProfilerError(
                    "another profiler is already sampling this process"
                )
            use_signal = armed() or (
                self._clock_requested != "thread" and arm()
            )
            if self._clock_requested == "signal" and not use_signal:
                raise ProfilerError(
                    "signal clock requested but the process is not armed "
                    "(call repro.obs.prof.arm() from the main thread)"
                )
            if self.mode == "cpu" and not use_signal:
                raise ProfilerError(
                    "cpu mode needs the signal clock; arm() the process "
                    "from its main thread first"
                )
            self.clock = (
                "signal"
                if use_signal and self._clock_requested != "thread"
                else "thread"
            )
            self._running = True
            self._started_unix = time.time()
            self._started_mono = time.perf_counter()
            _ACTIVE = self
            interval_s = self.interval_ms / 1000.0
            if self.clock == "signal":
                timer = (
                    signal.ITIMER_PROF
                    if self.mode == "cpu"
                    else signal.ITIMER_REAL
                )
                self._timer = timer
                signal.setitimer(timer, interval_s, interval_s)
            else:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run_thread_clock,
                    name="prof-sampler",
                    daemon=True,
                )
                self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop sampling and return this window's profile document."""
        global _ACTIVE
        with _STATE_LOCK:
            if not self._running:
                raise ProfilerError("profiler is not running")
            if self.clock == "signal":
                signal.setitimer(self._timer, 0.0, 0.0)
            else:
                self._stop.set()
            if _ACTIVE is self:
                _ACTIVE = None
            self._running = False
        if self._thread is not None:
            self._thread.join(timeout=1.0 + self.interval_ms / 1000.0)
            self._thread = None
        self.duration_s = time.perf_counter() - self._started_mono
        self.document = self._to_doc()
        return self.document

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._running:
            self.stop()

    # -- sampling ---------------------------------------------------------

    def _run_thread_clock(self) -> None:
        self._sampler_tid = threading.get_ident()
        interval_s = self.interval_ms / 1000.0
        while not self._stop.wait(interval_s):
            self._sample()

    def _sample(self, signal_frame=None) -> None:
        try:
            paths = span_paths()
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - sampling is best-effort
            return
        self._ticks += 1
        counts = self._counts
        for tid, frame in frames.items():
            if tid == self._sampler_tid:
                continue
            if signal_frame is not None and tid == self._main_tid:
                # The handler runs on the main thread; its entry in
                # _current_frames() is the handler itself.  The frame
                # the signal interrupted is what we were executing.
                frame = signal_frame
            stack, idle = _extract_stack(frame)
            if not stack:
                continue
            key = (paths.get(tid, ()), stack, idle)
            counts[key] = counts.get(key, 0) + 1

    # -- export -----------------------------------------------------------

    def _to_doc(self) -> dict:
        stacks = [
            [list(spans), list(frames), count, int(idle)]
            for (spans, frames, idle), count in sorted(
                self._counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return {
            "schema": PROFILE_SCHEMA,
            "kind": "cpu-profile",
            "instance": self.instance,
            "role": self.role,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "mode": self.mode,
            "clock": self.clock,
            "interval_ms": self.interval_ms,
            "duration_s": round(self.duration_s, 6),
            "started_s": round(self._started_unix, 3),
            "written_s": round(time.time(), 3),
            "ttl_s": DEFAULT_PROFILE_TTL_S,
            "ticks": self._ticks,
            "samples": sum(self._counts.values()),
            "stacks": stacks,
        }


# -- profile documents --------------------------------------------------------


def iter_stacks(doc: dict):
    """``(spans, frames, count, idle)`` per entry of a profile document."""
    for entry in doc.get("stacks", ()):
        spans, frames, count, idle = entry
        yield tuple(spans), tuple(frames), int(count), bool(idle)


def merge_profile_docs(docs: list[dict], request: dict | None = None) -> dict:
    """Sum per-process profile documents into one fleet profile.

    Counts are summed per (span path, frame stack, idle) key, so a merge
    of N spills holds exactly the sum of their samples.  Per-process
    provenance is kept under ``processes``.
    """
    counts: dict[tuple[tuple[str, ...], tuple[str, ...], bool], int] = {}
    processes = []
    ticks = 0
    duration = 0.0
    for doc in docs:
        if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
            continue
        for spans, frames, count, idle in iter_stacks(doc):
            key = (spans, frames, idle)
            counts[key] = counts.get(key, 0) + count
        ticks += int(doc.get("ticks", 0))
        duration = max(duration, float(doc.get("duration_s", 0.0)))
        processes.append(
            {
                "instance": doc.get("instance"),
                "role": doc.get("role"),
                "pid": doc.get("pid"),
                "clock": doc.get("clock"),
                "samples": int(doc.get("samples", 0)),
            }
        )
    stacks = [
        [list(spans), list(frames), count, int(idle)]
        for (spans, frames, idle), count in sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    merged = {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "merged": True,
        "mode": (request or {}).get(
            "mode", docs[0].get("mode", "wall") if docs else "wall"
        ),
        "interval_ms": float(
            (request or {}).get(
                "interval_ms",
                docs[0].get("interval_ms", DEFAULT_INTERVAL_MS)
                if docs
                else DEFAULT_INTERVAL_MS,
            )
        ),
        "duration_s": round(duration, 6),
        "written_s": round(time.time(), 3),
        "ttl_s": DEFAULT_PROFILE_TTL_S,
        "ticks": ticks,
        "samples": sum(counts.values()),
        "processes": processes,
        "stacks": stacks,
    }
    if request is not None:
        merged["request_id"] = request.get("id")
    return merged


def _stack_root(spans: tuple[str, ...], idle: bool) -> tuple[str, ...]:
    if spans:
        return spans
    return (UNATTRIBUTED_IDLE,) if idle else (UNATTRIBUTED_BUSY,)


def collapsed_stacks(doc: dict, include_idle: bool = True) -> str:
    """Brendan-Gregg collapsed-stack text: ``root;..;leaf count`` lines.

    Span-path segments lead each line, so flamegraph tooling groups
    frames under the span that owned them.
    """
    lines = []
    for spans, frames, count, idle in iter_stacks(doc):
        if idle and not spans and not include_idle:
            continue
        path = _stack_root(spans, idle) + frames
        lines.append((count, ";".join(path)))
    lines.sort(key=lambda item: (-item[0], item[1]))
    return "\n".join(f"{path} {count}" for count, path in lines)


def span_totals(doc: dict, top: int | None = None) -> list[dict]:
    """Samples per span path (descending) — the profile's hot list."""
    totals: dict[tuple[str, ...], int] = {}
    for spans, _frames, count, idle in iter_stacks(doc):
        root = _stack_root(spans, idle)
        totals[root] = totals.get(root, 0) + count
    samples = max(1, int(doc.get("samples", 0)))
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    return [
        {
            "path": ";".join(path),
            "samples": count,
            "fraction": round(count / samples, 4),
        }
        for path, count in ranked
    ]


def attribution(doc: dict) -> dict:
    """How much of the profile lands on a known span path.

    ``fraction`` is computed over the *busy* samples (idle parked-thread
    samples with no span are excluded): a wall profile of a quiescent
    fleet is dominated by accept/poll/queue waits, and attribution is a
    statement about where the work went.
    """
    attributed = idle = untracked = 0
    for spans, _frames, count, is_idle in iter_stacks(doc):
        if spans:
            attributed += count
        elif is_idle:
            idle += count
        else:
            untracked += count
    busy = attributed + untracked
    return {
        "samples": attributed + idle + untracked,
        "attributed": attributed,
        "idle": idle,
        "untracked": untracked,
        "fraction": round(attributed / busy, 4) if busy else 0.0,
    }


def validate_profile(
    doc: dict,
    min_samples: int = 1,
    min_span_fraction: float | None = None,
) -> list[str]:
    """Structural + statistical checks; returns problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["profile is not a JSON object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {PROFILE_SCHEMA}")
        return problems
    if doc.get("kind") != "cpu-profile":
        problems.append(f"kind is {doc.get('kind')!r}, want 'cpu-profile'")
    if float(doc.get("interval_ms", 0.0)) <= 0:
        problems.append("interval_ms must be positive")
    if float(doc.get("duration_s", 0.0)) <= 0:
        problems.append("duration_s must be positive")
    total = 0
    try:
        for _spans, frames, count, _idle in iter_stacks(doc):
            if count < 1:
                problems.append(f"non-positive stack count {count}")
            if not frames:
                problems.append("empty frame stack entry")
            total += count
    except (TypeError, ValueError, KeyError):
        problems.append("malformed stacks entry")
        return problems
    if total != int(doc.get("samples", -1)):
        problems.append(
            f"samples says {doc.get('samples')}, stacks sum to {total}"
        )
    if total < min_samples:
        problems.append(f"only {total} samples, want >= {min_samples}")
    if min_span_fraction is not None:
        stats = attribution(doc)
        if stats["fraction"] < min_span_fraction:
            problems.append(
                f"span attribution {stats['fraction']:.3f} below "
                f"{min_span_fraction:.3f} "
                f"(attributed {stats['attributed']}, "
                f"untracked {stats['untracked']}, idle {stats['idle']})"
            )
    if doc.get("merged") and not doc.get("processes"):
        problems.append("merged profile lists no source processes")
    return problems


# -- fleet coordination -------------------------------------------------------


def profiles_dir(root: str | Path) -> Path:
    """The profile-spill directory under a store root."""
    return Path(root) / "telemetry" / "profiles"


def profile_request_path(root: str | Path) -> Path:
    return profiles_dir(root) / "request.json"


def _parse_profile(_path: Path, doc: dict) -> dict | None:
    if doc.get("schema") != PROFILE_SCHEMA or doc.get("kind") != "cpu-profile":
        return None
    return doc


def _profile_spills(directory: Path):
    """The spill directory.  The request file in it reads as foreign, so
    it is reaped like a torn spill once its TTL is long past."""
    from repro.service.locking import SpillDir

    return SpillDir(
        directory,
        directory.parent / "telemetry.lock",
        ttl_s=DEFAULT_PROFILE_TTL_S,
        parse=_parse_profile,
    )


def current_request(root: str | Path, now: float | None = None) -> dict | None:
    """The in-flight profile request, or ``None`` when the window closed."""
    from repro.service.locking import read_record

    record = read_record(profile_request_path(root))
    if record is None or record.get("kind") != "profile-request":
        return None
    now = time.time() if now is None else now
    if float(record.get("deadline_s", 0.0)) <= now:
        return None
    return record


def request_profile(
    root: str | Path,
    seconds: float = DEFAULT_WINDOW_S,
    interval_ms: float = DEFAULT_INTERVAL_MS,
    mode: str = "wall",
) -> dict:
    """Publish (or join) a fleet-wide sampling window through the store.

    Taken under the telemetry lock: if another worker already opened a
    window that is still mostly ahead of us, its request is returned
    unchanged so concurrent ``/profile`` calls share one window instead
    of fighting over the per-process profiler.
    """
    seconds = min(MAX_WINDOW_S, max(0.2, float(seconds)))
    interval_ms = min(100.0, max(1.0, float(interval_ms)))
    spills = _profile_spills(profiles_dir(root))
    now = time.time()
    with spills.lock:
        existing = current_request(root, now=now)
        if existing is not None and (
            float(existing["deadline_s"]) - now >= 0.5 * seconds
        ):
            return existing
        request = {
            "schema": PROFILE_SCHEMA,
            "kind": "profile-request",
            "id": uuid.uuid4().hex[:12],
            "mode": mode if mode in ("wall", "cpu") else "wall",
            "seconds": seconds,
            "interval_ms": interval_ms,
            "issued_s": round(now, 3),
            "deadline_s": round(now + seconds, 3),
        }
        spills.write("request", request)
    return request


def spill_profile(root: str | Path, doc: dict) -> Path | None:
    """Atomically write one process's profile document under the store."""
    spills = _profile_spills(profiles_dir(root))
    stem = f"{doc.get('instance', 'proc')}-{doc.get('pid', 0)}"
    try:
        spills.write(stem, doc)
    except OSError:
        return None
    REGISTRY.counter(
        "repro_profile_windows_total",
        "Profile sampling windows this process has served",
    ).inc()
    return spills.path_of(stem)


def read_profile_docs(
    root: str | Path, request_id: str | None = None, gc: bool = True
) -> list[dict]:
    """Live profile spills under ``root`` (stale ones excluded and GC'd).

    A spill stays readable for its TTL even after its writer exited — a
    capture is a point-in-time artifact, so (unlike metric shards) a
    dead pid does not retire it early.
    """
    live = [
        doc
        for doc in _profile_spills(profiles_dir(root)).live(gc=gc)
        if request_id is None or doc.get("request_id") == request_id
    ]
    live.sort(key=lambda d: (str(d.get("role")), str(d.get("instance"))))
    return live


def gc_stale_profiles(
    root: str | Path, candidates: list[Path] | None = None
) -> list[Path]:
    """Remove expired spills under the telemetry lock, exactly once."""
    removed = _profile_spills(profiles_dir(root)).gc(candidates)
    if removed:
        _log.info(
            "collected stale profile spills", extra={"count": len(removed)}
        )
    return removed


def collect_fleet_profile(
    root: str | Path,
    request: dict,
    grace_s: float = 2.0,
    poll_s: float = 0.1,
    expected: int | None = None,
) -> dict:
    """Wait out a request's window and merge every matching spill.

    ``expected`` defaults to the number of live metric shards — the
    processes whose agents should answer.  Collection returns as soon as
    that many spills carry the request id, or once ``grace_s`` past the
    window deadline has elapsed with whatever arrived.
    """
    if expected is None:
        from repro.obs.fleet import read_live_shards

        expected = max(1, len(read_live_shards(root, gc=False)))
    deadline = float(request.get("deadline_s", time.time()))
    request_id = request.get("id")
    while True:
        remaining = deadline + 0.2 - time.time()
        if remaining <= 0:
            break
        time.sleep(min(poll_s, remaining))
    stop_at = deadline + 0.2 + max(0.0, grace_s)
    while True:
        docs = read_profile_docs(root, request_id=request_id, gc=False)
        if len(docs) >= expected or time.time() >= stop_at:
            break
        time.sleep(poll_s)
    return merge_profile_docs(docs, request=request)


# -- the per-process agent ----------------------------------------------------


class ProfileAgent:
    """Answers fleet profile requests from a daemon thread.

    Watches the request file with a cheap ``stat`` every ``poll_s``
    (re-parsing only when it changes), samples this process for each new
    window, and spills the resulting document.  Start one per fleet
    process, right next to its :class:`~repro.obs.fleet.ShardWriter`.
    """

    def __init__(
        self,
        root: str | Path,
        instance: str,
        role: str,
        poll_s: float = 0.25,
    ) -> None:
        self.root = Path(root)
        self.instance = instance
        self.role = role
        self.poll_s = max(0.05, float(poll_s))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._request_sig: tuple | None = None
        self._served_ids: set[str] = set()

    def start(self) -> "ProfileAgent":
        self._thread = threading.Thread(
            target=self._run,
            name=f"profile-agent-{self.instance}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    # -- internals --------------------------------------------------------

    def _poll_request(self) -> dict | None:
        path = profile_request_path(self.root)
        try:
            stat = path.stat()
        except OSError:
            return None
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._request_sig:
            return None
        self._request_sig = signature
        return current_request(self.root)

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            request = self._poll_request()
            if request is None:
                continue
            request_id = str(request.get("id"))
            if request_id in self._served_ids:
                continue
            self._served_ids.add(request_id)
            if len(self._served_ids) > 256:
                self._served_ids.clear()
                self._served_ids.add(request_id)
            self._serve(request)

    def _serve(self, request: dict) -> None:
        remaining = float(request.get("deadline_s", 0.0)) - time.time()
        if remaining <= 0.05:
            return
        try:
            profiler = Profiler(
                mode=str(request.get("mode", "wall")),
                interval_ms=float(
                    request.get("interval_ms", DEFAULT_INTERVAL_MS)
                ),
                instance=self.instance,
                role=self.role,
            ).start()
        except (ProfilerError, ValueError):
            return  # a manual profiler owns this process right now
        try:
            self._stop.wait(remaining)
        finally:
            doc = profiler.stop()
        doc["request_id"] = request.get("id")
        spill_profile(self.root, doc)
        REGISTRY.counter(
            "repro_profile_samples_total",
            "Stack samples this process contributed to fleet profiles",
        ).inc(int(doc.get("samples", 0)))
