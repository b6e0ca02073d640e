"""Cross-process file locking and spill directories for the shared store.

Everything that more than one *process* may mutate concurrently — the
result store's ``index.json``, the claim registry's records, the shared
run log — is serialized through a :class:`FileLock`: an advisory
``fcntl.flock`` on a dedicated lock file next to the protected data.

Per-process state that siblings read — metric shards, trace and profile
spills, claim records, job snapshots — lives in a :class:`SpillDir`: one
JSON record per file, written atomically (:func:`atomic_write`), judged
stale by one rule, and garbage-collected exactly once under a
:class:`FileLock`.

Why ``flock`` and not the lock file's mere existence:

- **Crash safety** — the kernel releases a flock when its holder dies,
  so a worker killed mid-write never wedges the store.  An
  existence-based lock needs staleness heuristics; flock needs none.
- **Blocking waits** — waiters sleep in the kernel instead of polling.

On the rare platform without :mod:`fcntl` (Windows), the class degrades
to an ``O_CREAT | O_EXCL`` spin lock with mtime-based staleness.

Both layers compose with an in-process :class:`threading.RLock`:
``flock`` is per open-file-description, so two threads of one process
sharing the store instance must serialize *before* touching the file
lock (a second ``flock`` on the same fd would silently succeed).
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import socket
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path

try:  # pragma: no cover - exercised indirectly on every Linux test run
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import StoreError

__all__ = ["FileLock", "SpillDir", "atomic_write", "pid_alive", "read_record"]

#: Fallback (no-fcntl) spin parameters: poll cadence and the age at
#: which an orphaned lock file is presumed dead and broken.
_SPIN_INTERVAL_S = 0.002
_STALE_FALLBACK_S = 30.0


class FileLock:
    """An advisory, reentrant, cross-process lock on one path.

    Reentrant *per instance* (guarded by an internal RLock + depth
    counter), so nested store operations in one thread do not deadlock,
    while distinct threads and distinct processes fully exclude each
    other.

    Usage::

        lock = FileLock(root / "index.lock")
        with lock:
            ... read-modify-write the protected files ...
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    # -- acquisition ----------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> None:
        """Block until the lock is held (reentrant for this thread).

        Raises:
            StoreError: If ``timeout`` (seconds) elapses first.
        """
        if not self._thread_lock.acquire(
            timeout=-1 if timeout is None else timeout
        ):
            raise StoreError(f"timed out acquiring thread lock for {self.path}")
        if self._depth:  # reentrant: the process lock is already ours
            self._depth += 1
            return
        try:
            if fcntl is not None:
                self._acquire_flock(timeout)
            else:  # pragma: no cover - non-POSIX
                self._acquire_spin(timeout)
        except BaseException:
            self._thread_lock.release()
            raise
        self._depth = 1

    def release(self) -> None:
        if self._depth == 0:
            raise StoreError(f"release of unheld lock {self.path}")
        self._depth -= 1
        if self._depth == 0:
            try:
                if fcntl is not None:
                    self._release_flock()
                else:  # pragma: no cover - non-POSIX
                    self._release_spin()
            finally:
                self._thread_lock.release()
        else:
            self._thread_lock.release()

    def locked_by_me(self) -> bool:
        return self._depth > 0

    # -- flock backend --------------------------------------------------------

    def _acquire_flock(self, timeout: float | None) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError as exc:
                        if exc.errno not in (errno.EACCES, errno.EAGAIN):
                            raise
                        if time.monotonic() >= deadline:
                            raise StoreError(
                                f"timed out acquiring {self.path} "
                                f"after {timeout}s"
                            ) from None
                        time.sleep(_SPIN_INTERVAL_S)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def _release_flock(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -- O_EXCL fallback backend ----------------------------------------------

    def _acquire_spin(self, timeout: float | None) -> None:  # pragma: no cover
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
                os.write(fd, str(os.getpid()).encode())
                self._fd = fd
                return
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                    if age > _STALE_FALLBACK_S:
                        self.path.unlink(missing_ok=True)
                        continue
                except OSError:
                    continue  # holder released between open and stat
                if deadline is not None and time.monotonic() >= deadline:
                    raise StoreError(
                        f"timed out acquiring {self.path} after {timeout}s"
                    ) from None
                time.sleep(_SPIN_INTERVAL_S)

    def _release_spin(self) -> None:  # pragma: no cover
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)
        self.path.unlink(missing_ok=True)


# -- spill directories --------------------------------------------------------


def atomic_write(path: Path, data: bytes | dict, exclusive: bool = False) -> bool:
    """Write ``data`` (bytes, or a dict as JSON) to ``path`` so readers
    see all of it or none of it.

    The bytes go to a temp file next to ``path`` (parents are created on
    demand) that is then renamed into place.  With ``exclusive`` it is
    hard-linked instead, which fails if ``path`` exists: exactly one
    racing creator wins, with a complete file from its first instant.
    Returns ``False`` only when an exclusive create lost.
    """
    prefix = f".{path.name}."
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix)
    try:
        if isinstance(data, bytes):
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        else:  # streamed: a large document is never held twice in memory
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(data, handle, sort_keys=True)
        if not exclusive:
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        return True
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_record(path: Path) -> dict | None:
    """One JSON object from ``path``; missing/torn/non-object -> ``None``."""
    try:
        record = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - alive (other user) or unprobeable
        pass
    return True


class SpillDir:
    """A directory of per-process JSON records, ``<stem><suffix>`` each.

    One staleness rule, configured per directory:

    - a record older than its ``ttl_s`` field (else the directory's
      ``ttl_s``; ``None`` means no expiry) is stale.  Age runs from the
      record's ``clock`` field, or from the file's mtime if ``clock`` is
      ``None``;
    - with ``pid_bound``, so is a record whose ``pid`` is dead on this
      ``host``;
    - a torn file, or one ``parse`` rejects (returns ``None``), counts as
      absent and is stale once its mtime is older than ``ttl_s``.

    :meth:`gc` re-checks each candidate under ``lock`` before the unlink,
    so racing collectors remove each stale record exactly once, together
    with its ``companions`` (side files with the same stem).
    """

    def __init__(
        self,
        path: str | Path,
        lock: str | Path,
        ttl_s: float | None = None,
        pid_bound: bool = False,
        clock: str | None = "written_s",
        suffix: str = ".json",
        parse: Callable[[Path, dict], object] | None = None,
        companions: tuple[str, ...] = (),
    ) -> None:
        self.path = Path(path)
        self.lock = FileLock(lock)
        self.ttl_s = ttl_s
        self.pid_bound = pid_bound
        self.clock = clock
        self.suffix = suffix
        self.parse = parse or (lambda _path, record: record)
        self.companions = companions
        self._host = socket.gethostname()

    def path_of(self, stem: str) -> Path:
        """Where record ``stem`` lives (unsafe characters become ``-``)."""
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in stem)
        return self.path / f"{safe}{self.suffix}"

    def write(self, stem: str, record: dict, exclusive: bool = False) -> bool:
        """Atomically (re)write one record; see :func:`atomic_write`."""
        return atomic_write(self.path_of(stem), record, exclusive)

    def load(self, path: Path):
        """The parsed record at ``path``; ``None`` if missing/torn/foreign."""
        return self._read(path)[1]

    def live(self, paths: list[Path] | None = None, gc: bool = True) -> list:
        """Parsed non-stale records among ``paths`` (default: all); the
        stale ones are collected when ``gc`` is set."""
        now = time.time()
        live, dead = [], []
        for path in self._paths() if paths is None else paths:
            raw, parsed = self._read(path)
            if self._stale(path, raw, now):
                dead.append(path)
            elif parsed is not None:
                live.append(parsed)
        if gc and dead:
            self._reap(dead)
        return live

    def gc(self, candidates: list[Path] | None = None) -> list[Path]:
        """Remove the stale records among ``candidates`` (default: all);
        returns the paths this call removed."""
        if candidates is None:
            candidates = self._paths()
        now = time.time()
        dead = [p for p in candidates if self._stale(p, self._read(p)[0], now)]
        return self._reap(dead) if dead else []

    def _paths(self) -> list[Path]:
        try:
            return sorted(self.path.glob(f"*{self.suffix}"))
        except OSError:
            return []

    def _read(self, path: Path) -> tuple[dict | None, object]:
        """``(raw, parsed)``; both ``None`` for a missing/torn/foreign file."""
        raw = read_record(path)
        try:
            parsed = None if raw is None else self.parse(path, raw)
        except (KeyError, TypeError, ValueError):
            parsed = None
        return (None, None) if parsed is None else (raw, parsed)

    def _stale(self, path: Path, raw: dict | None, now: float) -> bool:
        if self.ttl_s is None:
            return False
        if raw is None or self.clock is None:
            try:
                written = path.stat().st_mtime
            except OSError:
                return False  # gone: a sibling removed it
            if raw is None:
                return now - written > self.ttl_s
        else:
            written = float(raw.get(self.clock, 0.0))
        if now - written > float(raw.get("ttl_s", self.ttl_s)):
            return True
        pid = raw.get("pid")
        return (
            self.pid_bound
            and raw.get("host") == self._host
            and isinstance(pid, int)
            and not pid_alive(pid)
        )

    def _reap(self, dead: list[Path]) -> list[Path]:
        removed = []
        with self.lock:
            now = time.time()
            for path in dead:
                # Re-check under the lock: a sibling may have removed the
                # record, or its owner rewritten it, meanwhile.
                if not self._stale(path, self._read(path)[0], now):
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue  # already gone: the sibling won the race
                for suffix in self.companions:
                    path.with_suffix(suffix).unlink(missing_ok=True)
                removed.append(path)
        return removed
