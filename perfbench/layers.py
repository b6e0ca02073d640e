"""Per-layer self time, measured from outside the program.

During a traced run the benchmark replaces each layer's public function
or method — at the name its caller looks up — with a wrapper that times
the call.  A layer's self time is its calls' wall time minus the part
spent in other wrapped layers called from inside it (a per-thread stack
of child time), so the self times of nested layers add up to no more
than the wall time around them.  The wrappers are removed when the
traced section ends; nothing in the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time

from common import PER_LAYER, TIMED_LAYERS


class LayerTracer:
    """Accumulates ``self_s``/``calls`` per layer plus named counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(args, result)`` returns
        extra counts to add under ``<layer>.<name>``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + elapsed - children
                    tracer.total_s[layer] = tracer.total_s.get(layer, 0.0) + elapsed
                    tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            if count is not None:
                for name, value in count(args, result).items():
                    tracer.count(f"{layer}.{name}", value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, layer, count)`` target for the
        duration of the block, restoring the originals after."""
        patched = []
        try:
            for owner, attr, layer, count in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self.wrap(layer, original, count))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def _workload_run_counts(args, run) -> dict:
    records = run.trace.records
    return {"records": len(records), "bytes_in": sum(r.bytes_in for r in records)}


def _plan_counts(args, plan) -> dict:
    return {"samples": sum(len(p.warmups) + len(p.measured) for p in plan)}


def compute_targets() -> list:
    """The per-workload compute layers, datagen through derive."""
    import repro.cluster.testbed as testbed
    from repro.arch.core_model import CoreModel
    from repro.arch.processor import Processor
    from repro.datagen.bdgs import Bdgs
    from repro.perf.profiler import PerfProfiler
    from repro.workloads.base import Workload

    targets = [
        (Bdgs, name, "datagen", None)
        for name, member in vars(Bdgs).items()
        if inspect.isfunction(member)
    ]
    targets += [
        (Workload, "run", "stacks", _workload_run_counts),
        (testbed, "profiles_from_trace", "stacks.instrument",
         lambda args, profiles: {"phases": len(profiles)}),
        (testbed, "plan_workload", "arch.batch", _plan_counts),
        (CoreModel, "prewarm", "arch.core_model.prewarm", None),
        (CoreModel, "run_compact", "arch.core_model.run_compact",
         lambda args, counts: {"ops": args[1].n_ops}),
        (Processor, "run_workload", "arch.processor", None),
        (PerfProfiler, "profile", "perf", None),
        (testbed, "derive_metrics", "metrics", None),
    ]
    return targets


def analysis_targets() -> list:
    """The statistical pipeline and the budgeted selector, at the names
    the benchmark and the service look them up."""
    import repro.core.subsetting as subsetting
    import repro.service.server as server
    import repro.subset.select as select

    return [
        (subsetting, "subset_workloads", "core", None),
        (server, "subset_workloads", "core", None),
        (select, "select_budgeted", "subset", None),
    ]


def store_read_targets() -> list:
    """Result-store reads (the serving path and hydration)."""
    from repro.service.store import ResultStore

    return [
        (ResultStore, "get", "service.store.get", None),
        (ResultStore, "get_raw", "service.store.get_raw", None),
        (ResultStore, "etag", "service.store.etag", None),
    ]


def store_targets() -> list:
    """Every result-store call plus the pool's lazy fork."""
    from repro.cluster.pool import CollectionPool
    from repro.service.store import ResultStore

    return [
        (CollectionPool, "__init__", "cluster.pool.fork", None),
        (ResultStore, "put", "service.store.put", None),
        (ResultStore, "adopt", "service.store.adopt", None),
    ] + store_read_targets()


def server_targets() -> list:
    from repro.service.server import CharacterizationService

    return [(CharacterizationService, "handle_get", "service.server.handle_get", None)]


def merge(*snapshots: dict) -> dict:
    """Sum several tracer snapshots (e.g. parent and hydrate process)."""
    merged = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for part in merged:
            for name, value in snap.get(part, {}).items():
                merged[part][name] = merged[part].get(name, 0) + value
    return merged


def collection_self_s(snap: dict, wall_s: float) -> float:
    """Wall time no timed layer claimed: orchestration plus the rest."""
    return wall_s - sum(snap["self_s"].values())


def coverage_problems(snap: dict, wall_s: float) -> list[str]:
    """The layer self times plus ``cluster.collection.self_s`` make up
    the traced ``suite_s`` only if no self time is negative (a wrapper
    whose children outlast it) and the layers claim no more than the
    wall time (a layer counted twice)."""
    problems = [
        f"{layer}.self_s is negative ({value:.6f})"
        for layer, value in snap["self_s"].items()
        if value < 0
    ]
    if collection_self_s(snap, wall_s) < 0:
        problems.append(
            f"layers claim {sum(snap['self_s'].values()):.4f}s "
            f"of a {wall_s:.4f}s traced suite"
        )
    return problems


def per_layer_metrics(snap: dict, extra: dict) -> dict:
    """Every per-layer metric: timed layers from ``snap``, the rest from
    ``extra``.  A layer the workload never reaches reads 0."""
    values = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_s"] = snap["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = snap["calls"].get(layer, 0)
    values.update(snap["counts"])
    compact_s = values["arch.core_model.run_compact.self_s"]
    values["arch.core_model.run_compact.ops_per_s"] = (
        values.get("arch.core_model.run_compact.ops", 0) / compact_s
        if compact_s > 0 else 0.0
    )
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
