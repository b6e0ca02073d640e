"""Per-op reference engine: the oracle the batched engine is checked against.

The production simulator (:meth:`repro.arch.core_model.CoreModel.
run_compact`, fed by :func:`repro.arch.batch.plan_workload`) synthesises
every window of a workload up front, compacts each sample to the events
that do work, and runs them through one fused loop.  This module is the
plain per-op form of the same model: it synthesises one window at a time
from ``rng``, in the interleaved protocol order (per phase, each core's
warm-up sample, then each core's measured sample), and walks *every*
synthesised operation through small per-access functions that drive the
caches, TLBs, predictor and coherence directory through their per-access
methods (``access_packed``, ``translate_miss``, ``predict_and_update``,
the directory's MESI transitions).

It never reads a :class:`~repro.arch.batch.PhasePlan`, so comparing the
two engines on raw-event totals *and* final RNG state proves both that
the kernel's inlining and fast paths are exact and that hoisting the
synthesis ahead of the simulation is bit-identical.  It is used by
``tests/arch/test_batch_equivalence.py`` and by the engine comparison of
``tools/bench_speed.py``; nothing in ``src/`` depends on it.

Keep it in lockstep with ``run_compact``: a behaviour change to the
kernel must be mirrored here, or the equivalence tests fail.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.arch.batch import warmup_ops
from repro.arch.cache import (
    ACCESS_EVICTED,
    ACCESS_HIT,
    ACCESS_WRITEBACK,
    ACCESS_VICTIM_SHIFT,
)
from repro.arch.coherence import MesiState, SnoopResponse
from repro.arch.core_model import (
    LINE_SHIFT,
    _MLP_SERVICE_L3,
    _MLP_SERVICE_MEM,
    _MLP_SERVICE_SIBLING,
    _PAGE_WALK_CYCLES,
    _STREAM_TRACKERS,
    CoreModel,
)
from repro.arch.pipeline import SampleCounts
from repro.arch.processor import Processor, _gc_paused, _merge_counts
from repro.arch.tlb import PAGE_SHIFT, TRANSLATE_STLB_HIT
from repro.arch.trace import (
    OP_BRANCH,
    OP_FETCH_FLAG,
    OP_LOAD,
    OP_STORE,
    OpTallies,
    PhaseProfile,
    synthesize_columns,
)
from repro.errors import ConfigurationError
from repro.obs.timeline import current_timeline

__all__ = [
    "OpStream",
    "synthesize_stream",
    "run_sample",
    "run_phase",
    "run_workload",
]


class OpStream(NamedTuple):
    """A synthesised sample as parallel plain-``list`` columns.

    The per-op loop indexes the columns directly, so a sample of tens of
    thousands of operations simulates without a Python object per
    instruction.  The fields are the :class:`~repro.arch.trace.
    StreamColumns` the simulation reads.
    """

    codes: list[int]
    addresses: list[int]
    takens: list[bool]
    pcs: list[int]
    tallies: OpTallies


def synthesize_stream(
    profile: PhaseProfile,
    n_ops: int,
    core_id: int,
    rng: np.random.Generator,
) -> OpStream:
    """Expand ``profile`` into ``n_ops`` ops as plain-list columns.

    A ``tolist`` view of :func:`~repro.arch.trace.synthesize_columns`, so
    it consumes ``rng`` exactly as the batched engine's synthesis does.
    """
    cols = synthesize_columns(profile, n_ops, core_id, rng)
    return OpStream(
        codes=cols.codes.tolist(),
        addresses=cols.addresses.tolist(),
        takens=cols.takens.tolist(),
        pcs=cols.pcs.tolist(),
        tallies=cols.tallies,
    )


def _fetch(core: CoreModel, pc: int, counts: SampleCounts) -> None:
    """Fetch the 16-byte block holding ``pc`` through L1I / L2 / L3.

    The frontend probes the L1I once per 16 B fetch block, so a
    sequential walk of one 64 B line yields three hits after the
    transition; a next-line prefetcher hides most sequential line
    transitions, leaving jumps as the dominant L1I miss source.

    The ITLB-L1 and L1I hit checks are inlined (one set probe each);
    only misses pay a call into the slow paths.  The private L1s are
    built with power-of-two set counts, which is what makes the
    ``& _set_mask`` indexing valid.
    """
    counts.l1i_accesses += 1
    itlb = core.itlb
    page = pc >> PAGE_SHIFT
    itlb_l1 = itlb.l1
    tlb_set = itlb_l1._sets[page & itlb_l1._set_mask]
    if page in tlb_set:
        tlb_set[page] = tlb_set.pop(page)
        itlb.stats.l1_hits += 1
    elif itlb.translate_miss(page) == TRANSLATE_STLB_HIT:
        counts.itlb_stlb_hits += 1
    else:
        counts.itlb_walks += 1
        counts.itlb_walk_cycles += _PAGE_WALK_CYCLES
    l1i = core.l1i
    line = pc >> LINE_SHIFT
    cache_set = l1i._sets[line & l1i._set_mask]
    if line in cache_set:
        l1i.stats.hits += 1
        cache_set[line] = cache_set.pop(line)
        hit = True
    else:
        l1i.fill_miss(cache_set, line, False)  # L1I lines never dirty
        hit = False
    if line == core._last_fetch_line + 1:
        l1i.install_line(line + 1)
        core.l2.install_line(line + 1)
        core.l3.install_line(line + 1)
    core._last_fetch_line = line
    if hit:
        counts.l1i_hits += 1
        return
    counts.l1i_misses += 1
    l2_access = core.l2.access_packed(pc)
    if l2_access & ACCESS_HIT:
        counts.icache_l2_hits += 1
        counts.l2_hits += 1
        return
    counts.l2_misses += 1
    counts.offcore_code += 1
    _handle_l2_eviction(core, l2_access, counts)
    l3_access = core.l3.access_packed(pc)
    if l3_access & ACCESS_HIT:
        counts.icache_l3_hits += 1
        counts.l3_hits += 1
    else:
        counts.l3_misses += 1
        counts.icache_mem += 1


def _handle_l1d_eviction(
    core: CoreModel,
    packed: int,
    counts: SampleCounts,
) -> None:
    """Absorb a dirty L1D victim into the L2 (write-back).

    ``packed`` is an :meth:`~repro.arch.cache.SetAssociativeCache.
    access_packed` result; clean or victimless misses need no action.
    """
    if not packed & ACCESS_WRITEBACK:
        return
    victim = packed >> ACCESS_VICTIM_SHIFT
    if not core.l2.set_dirty(victim):
        # Victim escaped the private hierarchy entirely.
        counts.offcore_writeback += 1
        core.directory.evicted(core.core_id, victim)


def _handle_l2_eviction(
    core: CoreModel,
    packed: int,
    counts: SampleCounts,
) -> None:
    """Handle an L2 victim: write back dirty data, keep L1D coherent."""
    if not packed & ACCESS_EVICTED:
        return
    victim = packed >> ACCESS_VICTIM_SHIFT
    if packed & ACCESS_WRITEBACK:
        counts.offcore_writeback += 1
    # Maintain (approximate) inclusion so the directory can treat
    # "in L2" as "in the private hierarchy".
    core.l1d.invalidate_line(victim)
    core.directory.evicted(core.core_id, victim)


def _record_snoop(
    core: CoreModel,
    response: SnoopResponse,
    counts: SampleCounts,
) -> None:
    if response is SnoopResponse.HIT:
        counts.snoop_hit += 1
    elif response is SnoopResponse.HITE:
        counts.snoop_hite += 1
    elif response is SnoopResponse.HITM:
        counts.snoop_hitm += 1


def _prefetch_ahead(core: CoreModel, line: int, counts: SampleCounts) -> None:
    """Install the next two lines after a detected sequential stream.

    Real L1/L2 prefetchers track a few dozen independent streams (one
    per 4 KB page), so sequential scans stay covered even when other
    references interleave.  On a detected sequential pattern within a
    page, the next two lines are installed throughout the hierarchy
    without demand statistics — which is why streaming scans do not
    drown the LLC in compulsory misses on real hardware.

    The stream-detector probe itself is inlined in :func:`_load` /
    :func:`_store`; this function only runs on a detection.
    """
    l1d, l2, l3 = core.l1d, core.l2, core.l3
    for ahead in (line + 1, line + 2):
        if not l2.line_resident(ahead):
            # The prefetch escapes the core: it is offcore data
            # traffic just like a demand read would have been.
            counts.offcore_data += 1
        l1d.install_line(ahead)
        l2.install_line(ahead)
        l3.install_line(ahead)


def _load(
    core: CoreModel,
    addr: int,
    tick: int,
    outstanding: list[int],
    counts: SampleCounts,
) -> None:
    line = addr >> LINE_SHIFT
    # Streaming prefetcher probe (one dict get/set per access; the
    # tracker-limit pop can only be needed when a new page was added).
    page4k = line >> 6  # 4 KiB page of this line
    trackers = core._stream_trackers
    last = trackers.get(page4k)
    trackers[page4k] = line
    if last is not None:
        if line == last + 1:
            _prefetch_ahead(core, line, counts)
    elif len(trackers) > _STREAM_TRACKERS:
        trackers.pop(next(iter(trackers)))
    # DTLB with the L1 hit check inlined.
    dtlb = core.dtlb
    page = addr >> PAGE_SHIFT
    dtlb_l1 = dtlb.l1
    tlb_set = dtlb_l1._sets[page & dtlb_l1._set_mask]
    if page in tlb_set:
        tlb_set[page] = tlb_set.pop(page)
        dtlb.stats.l1_hits += 1
    elif dtlb.translate_miss(page) == TRANSLATE_STLB_HIT:
        counts.dtlb_stlb_hits += 1
    else:
        counts.dtlb_walks += 1
        counts.dtlb_walk_cycles += _PAGE_WALK_CYCLES
    # L1D with the hit check inlined.
    l1d = core.l1d
    cache_set = l1d._sets[line & l1d._set_mask]
    if line in cache_set:
        l1d.stats.hits += 1
        cache_set[line] = cache_set.pop(line)
        return
    access = l1d.fill_miss(cache_set, line, False)
    _handle_l1d_eviction(core, access, counts)
    if line in core._lfb:
        counts.load_hit_lfb += 1
        return
    l2_access = core.l2.access_packed(addr)
    if l2_access & ACCESS_HIT:
        counts.load_hit_l2 += 1
        counts.l2_hits += 1
        return
    counts.l2_misses += 1
    counts.offcore_data += 1
    _handle_l2_eviction(core, l2_access, counts)
    core._lfb.append(line)
    response = core.directory.read_miss(core.core_id, line)
    if response is not SnoopResponse.NONE:
        _record_snoop(core, response, counts)
        counts.load_hit_sibling += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_SIBLING)
        # A dirty cache-to-cache transfer also installs into the L3.
        core.l3.access_packed(addr)
        return
    l3_access = core.l3.access_packed(addr)
    if l3_access & ACCESS_HIT:
        counts.load_hit_l3 += 1
        counts.l3_hits += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_L3)
    else:
        counts.l3_misses += 1
        counts.load_llc_miss += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_MEM)


def _store(
    core: CoreModel,
    addr: int,
    tick: int,
    outstanding: list[int],
    counts: SampleCounts,
) -> None:
    line = addr >> LINE_SHIFT
    # Streaming prefetcher probe (see _load).
    page4k = line >> 6
    trackers = core._stream_trackers
    last = trackers.get(page4k)
    trackers[page4k] = line
    if last is not None:
        if line == last + 1:
            _prefetch_ahead(core, line, counts)
    elif len(trackers) > _STREAM_TRACKERS:
        trackers.pop(next(iter(trackers)))
    # DTLB with the L1 hit check inlined.
    dtlb = core.dtlb
    page = addr >> PAGE_SHIFT
    dtlb_l1 = dtlb.l1
    tlb_set = dtlb_l1._sets[page & dtlb_l1._set_mask]
    if page in tlb_set:
        tlb_set[page] = tlb_set.pop(page)
        dtlb.stats.l1_hits += 1
    elif dtlb.translate_miss(page) == TRANSLATE_STLB_HIT:
        counts.dtlb_stlb_hits += 1
    else:
        counts.dtlb_walks += 1
        counts.dtlb_walk_cycles += _PAGE_WALK_CYCLES
    # L1D (write) with the hit check inlined.
    l1d = core.l1d
    cache_set = l1d._sets[line & l1d._set_mask]
    if line in cache_set:
        l1d.stats.hits += 1
        del cache_set[line]
        cache_set[line] = True
        state = core.directory.state(core.core_id, line)
        if state is MesiState.SHARED:
            # Upgrade: invalidate other sharers, goes on the bus.
            response = core.directory.upgrade(core.core_id, line)
            _record_snoop(core, response, counts)
            counts.offcore_rfo += 1
        elif state is MesiState.EXCLUSIVE:
            core.directory.write_hit_owned(core.core_id, line)
        return
    access = l1d.fill_miss(cache_set, line, True)
    _handle_l1d_eviction(core, access, counts)
    if line in core._lfb:
        counts.load_hit_lfb += 1  # stores merging into an in-flight fill
        return
    l2_access = core.l2.access_packed(addr, True)
    if l2_access & ACCESS_HIT:
        counts.l2_hits += 1
        state = core.directory.state(core.core_id, line)
        if state is MesiState.SHARED:
            response = core.directory.upgrade(core.core_id, line)
            _record_snoop(core, response, counts)
            counts.offcore_rfo += 1
        elif state is MesiState.EXCLUSIVE:
            core.directory.write_hit_owned(core.core_id, line)
        return
    counts.l2_misses += 1
    counts.offcore_rfo += 1
    _handle_l2_eviction(core, l2_access, counts)
    core._lfb.append(line)
    response = core.directory.write_miss(core.core_id, line)
    if response is not SnoopResponse.NONE:
        _record_snoop(core, response, counts)
        heapq.heappush(outstanding, tick + _MLP_SERVICE_SIBLING)
        core.l3.access_packed(addr, True)
        return
    l3_access = core.l3.access_packed(addr, True)
    if l3_access & ACCESS_HIT:
        counts.l3_hits += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_L3)
    else:
        counts.l3_misses += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_MEM)


def run_sample(
    core: CoreModel,
    profile: PhaseProfile,
    n_ops: int,
    rng: np.random.Generator,
) -> SampleCounts:
    """Simulate ``n_ops`` sampled instructions of ``profile``.

    Returns:
        Raw sample counters (unscaled).  Cycle accounting and scaling
        to the phase's nominal instruction count happen in
        :class:`repro.arch.processor.Processor`.

    The loop body is deliberately flat: the op stream is consumed as
    parallel columns, scalar counters are accumulated in locals and
    flushed into ``counts`` once, and the MLP tracking is inlined.
    """
    counts = SampleCounts()
    stream = synthesize_stream(profile, n_ops, core.core_id, rng)
    codes = stream.codes
    addresses = stream.addresses
    takens = stream.takens
    pcs = stream.pcs
    outstanding: list[int] = []
    heappop = heapq.heappop
    fetch = partial(_fetch, core)
    load = partial(_load, core)
    store = partial(_store, core)
    predict = core.branch.predict_and_update
    mispredicts = 0
    mlp_active = 0
    mlp_sum = 0
    for tick, code in enumerate(codes):
        while outstanding and outstanding[0] <= tick:
            heappop(outstanding)
        if outstanding:
            mlp_active += 1
            mlp_sum += len(outstanding)
        if code & OP_FETCH_FLAG:
            # New 16-byte fetch block (precomputed at synthesis time).
            fetch(pcs[tick], counts)
            code ^= OP_FETCH_FLAG
        if code == OP_LOAD:
            load(addresses[tick], tick, outstanding, counts)
        elif code == OP_STORE:
            store(addresses[tick], tick, outstanding, counts)
        elif code == OP_BRANCH:
            if not predict(addresses[tick], takens[tick]):
                mispredicts += 1
    # Per-class tallies are pure functions of the stream — precomputed
    # vectorised at synthesis time instead of counted per op here.
    tallies = stream.tallies
    counts.instructions = n_ops
    counts.kernel_instructions = tallies.kernel
    counts.loads = tallies.loads
    counts.stores = tallies.stores
    counts.branches_retired = tallies.branches
    counts.branch_mispredicts = mispredicts
    counts.int_ops = tallies.int_alu
    counts.x87_ops = tallies.fp_x87
    counts.sse_ops = tallies.fp_sse
    counts.mlp_active = mlp_active
    counts.mlp_sum = mlp_sum
    return counts


def run_phase(
    processor: Processor,
    profile: PhaseProfile,
    rng: np.random.Generator,
    active_cores: int,
    ops_per_core: int,
    warmup_fraction: float,
) -> dict[str, float]:
    """One window of the reference protocol: draw and simulate per sample."""
    processor._check_sampling(active_cores, ops_per_core)
    cores = processor.cores[:active_cores]
    n_warmup = warmup_ops(ops_per_core, warmup_fraction)
    for core in cores:
        run_sample(core, profile, n_warmup, rng)  # ramp-up, discarded
    total = SampleCounts()
    for core in cores:
        _merge_counts(total, run_sample(core, profile, ops_per_core, rng))
    return processor._phase_events(profile, total)


def run_workload(
    processor: Processor,
    profiles: list[PhaseProfile],
    rng: np.random.Generator,
    active_cores: int = 4,
    ops_per_core: int = 8000,
    warmup_fraction: float = 0.3,
) -> dict[str, float]:
    """Reference twin of :meth:`Processor.run_workload`.

    Same reset, union pre-warm, cycle accounting and timeline windows as
    the production path; only the synthesis (per window, from ``rng``)
    and the simulation (per op) differ.
    """
    if not profiles:
        raise ConfigurationError("run_workload needs at least one phase profile")
    with _gc_paused():
        processor._reset_and_prewarm(profiles, active_cores)
        sampler = current_timeline()
        totals: dict[str, float] = {}
        for window, profile in enumerate(profiles):
            events = run_phase(
                processor, profile, rng, active_cores, ops_per_core,
                warmup_fraction,
            )
            if sampler is not None:
                sampler.sim_window(
                    window, profile.name, profile.instructions, events
                )
            for name, value in events.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals
