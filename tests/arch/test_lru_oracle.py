"""LRU semantics of the cache and TLB sets, checked against a list model.

The batched-equals-oracle tests drive the kernel and the per-op reference
engine through the same :class:`SetAssociativeCache` and :class:`Tlb`
classes, so a replacement-order bug in those classes would move both
sides alike.  Here random operation sequences run against an independent
model that keeps each set as a Python list ordered least- to
most-recently used, and every step compares the returned outcome, the
statistics and the ordered per-set contents (with dirty bits).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import (
    ACCESS_EVICTED,
    ACCESS_HIT,
    ACCESS_VICTIM_SHIFT,
    ACCESS_WRITEBACK,
    CacheConfig,
    SetAssociativeCache,
)
from repro.arch.tlb import (
    PAGE_SHIFT,
    TRANSLATE_L1_HIT,
    TRANSLATE_PAGE_WALK,
    TRANSLATE_STLB_HIT,
    Tlb,
    TlbConfig,
    TlbHierarchy,
)

LINE = 64


class ListCache:
    """Each set a list of ``[line, dirty]`` pairs, LRU first."""

    def __init__(self, num_sets: int, assoc: int, write_back: bool) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.write_back = write_back
        self.sets: list[list[list]] = [[] for _ in range(num_sets)]
        self.stats = dict(
            hits=0, misses=0, evictions=0, writebacks=0, invalidations=0
        )

    def _find(self, line: int):
        entries = self.sets[line % self.num_sets]
        for position, entry in enumerate(entries):
            if entry[0] == line:
                return entries, position
        return entries, None

    def access_packed(self, addr: int, is_write: bool) -> int:
        line = addr // LINE
        entries, position = self._find(line)
        if position is not None:
            self.stats["hits"] += 1
            entry = entries.pop(position)
            entry[1] = entry[1] or is_write
            entries.append(entry)
            return ACCESS_HIT
        self.stats["misses"] += 1
        packed = 0
        if len(entries) == self.assoc:
            victim, dirty = entries.pop(0)
            self.stats["evictions"] += 1
            packed = ACCESS_EVICTED | (victim << ACCESS_VICTIM_SHIFT)
            if dirty and self.write_back:
                self.stats["writebacks"] += 1
                packed |= ACCESS_WRITEBACK
        entries.append([line, is_write])
        return packed

    def install_line(self, line: int) -> None:
        entries, position = self._find(line)
        if position is not None:
            entries.append(entries.pop(position))
            return
        if len(entries) == self.assoc:
            entries.pop(0)
        entries.append([line, False])

    def install_span(self, first_line: int, count: int) -> None:
        for offset in range(count - 1, -1, -1):
            self.install_line(first_line + offset)

    def invalidate_line(self, line: int) -> bool:
        entries, position = self._find(line)
        if position is None:
            return False
        self.stats["invalidations"] += 1
        return entries.pop(position)[1]

    def set_dirty(self, line: int) -> bool:
        entries, position = self._find(line)
        if position is None:
            return False
        entries[position][1] = True
        return True

    def mark_clean(self, line: int) -> None:
        entries, position = self._find(line)
        if position is not None:
            entries[position][1] = False

    def flush(self) -> None:
        for entries in self.sets:
            entries.clear()

    def contents(self) -> list[list[tuple[int, bool]]]:
        return [[(line, dirty) for line, dirty in entries] for entries in self.sets]


def _cache_contents(cache: SetAssociativeCache) -> list[list[tuple[int, bool]]]:
    return [list(cache_set.items()) for cache_set in cache._sets]


@st.composite
def cache_scenarios(draw):
    # Set counts cover both indexings: a power of two takes the mask
    # path, any other count the modulo path (as the modelled L3 does).
    num_sets = draw(st.sampled_from([1, 2, 3, 4, 6]))
    assoc = draw(st.sampled_from([1, 2, 4]))
    write_back = draw(st.booleans())
    capacity = num_sets * assoc
    lines = st.integers(min_value=0, max_value=3 * capacity + 2)
    span_counts = st.one_of(
        st.integers(min_value=0, max_value=num_sets - 1),  # narrow
        st.integers(min_value=num_sets, max_value=4 * capacity - 1),  # wide
        st.integers(min_value=4 * capacity, max_value=5 * capacity),  # wipe
    )
    op = st.one_of(
        st.tuples(
            st.just("access"), lines, st.integers(0, LINE - 1), st.booleans()
        ),
        st.tuples(st.just("install_line"), lines),
        st.tuples(st.just("install_span"), lines, span_counts),
        st.tuples(st.just("invalidate_line"), lines),
        st.tuples(st.just("set_dirty"), lines),
        st.tuples(st.just("mark_clean"), lines),
        st.tuples(st.just("flush")),
    )
    ops = draw(st.lists(op, min_size=1, max_size=80))
    return num_sets, assoc, write_back, ops


@settings(max_examples=300, deadline=None)
@given(scenario=cache_scenarios())
def test_cache_matches_list_lru_model(scenario):
    num_sets, assoc, write_back, ops = scenario
    cache = SetAssociativeCache(
        CacheConfig(
            "oracle",
            size=num_sets * assoc * LINE,
            associativity=assoc,
            line_size=LINE,
            write_back=write_back,
        )
    )
    model = ListCache(num_sets, assoc, write_back)
    for op in ops:
        name = op[0]
        if name == "access":
            _, line, offset, is_write = op
            addr = line * LINE + offset
            assert cache.access_packed(addr, is_write) == model.access_packed(
                addr, is_write
            ), op
        elif name == "install_span":
            cache.install_span(op[1], op[2])
            model.install_span(op[1], op[2])
        elif name == "flush":
            cache.flush()
            model.flush()
        else:
            assert getattr(cache, name)(op[1]) == getattr(model, name)(op[1]), op
        assert vars(cache.stats) == model.stats, op
        assert _cache_contents(cache) == model.contents(), op
        assert cache.resident_lines == sum(map(len, model.sets))


class ListTlb:
    """Each set a list of pages, LRU first."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets: list[list[int]] = [[] for _ in range(num_sets)]

    def lookup(self, page: int) -> bool:
        pages = self.sets[page % self.num_sets]
        if page in pages:
            pages.remove(page)
            pages.append(page)
            return True
        return False

    def fill(self, page: int) -> None:
        pages = self.sets[page % self.num_sets]
        if page in pages:
            pages.remove(page)
        elif len(pages) == self.assoc:
            pages.pop(0)
        pages.append(page)


class ListTlbHierarchy:
    def __init__(self, l1: ListTlb, stlb: ListTlb) -> None:
        self.l1 = l1
        self.stlb = stlb
        self.stats = dict(l1_hits=0, stlb_hits=0, walks=0, walk_cycles=0)

    def translate_packed(self, addr: int) -> int:
        page = addr >> PAGE_SHIFT
        if self.l1.lookup(page):
            self.stats["l1_hits"] += 1
            return TRANSLATE_L1_HIT
        if self.stlb.lookup(page):
            self.stats["stlb_hits"] += 1
            self.l1.fill(page)
            return TRANSLATE_STLB_HIT
        self.stats["walks"] += 1
        self.stats["walk_cycles"] += TlbHierarchy.PAGE_WALK_CYCLES
        self.stlb.fill(page)
        self.l1.fill(page)
        return TRANSLATE_PAGE_WALK


def _tlb_contents(tlb: Tlb) -> list[list[int]]:
    return [list(tlb_set) for tlb_set in tlb._sets]


@st.composite
def tlb_scenarios(draw):
    l1_sets = draw(st.sampled_from([1, 2, 4]))
    l1_ways = draw(st.sampled_from([1, 2, 4]))
    stlb_sets = draw(st.sampled_from([1, 2, 4, 8]))
    stlb_ways = draw(st.sampled_from([1, 2, 4]))
    pages = st.integers(
        min_value=0, max_value=2 * (l1_sets * l1_ways + stlb_sets * stlb_ways)
    )
    op = st.one_of(
        st.tuples(
            st.sampled_from(["itranslate", "dtranslate"]),
            pages,
            st.integers(0, (1 << PAGE_SHIFT) - 1),
        ),
        st.tuples(
            st.sampled_from(["lookup", "fill"]), st.sampled_from(["i", "d", "s"]), pages
        ),
        st.tuples(st.just("flush"), st.sampled_from(["i", "d", "s"])),
    )
    ops = draw(st.lists(op, min_size=1, max_size=80))
    return (l1_sets, l1_ways, stlb_sets, stlb_ways), ops


@settings(max_examples=300, deadline=None)
@given(scenario=tlb_scenarios())
def test_tlb_matches_list_lru_model(scenario):
    (l1_sets, l1_ways, stlb_sets, stlb_ways), ops = scenario
    # One STLB backs both hierarchies, as on the modelled core.
    stlb = Tlb(TlbConfig("STLB", stlb_sets * stlb_ways, stlb_ways))
    itlb = TlbHierarchy(Tlb(TlbConfig("ITLB", l1_sets * l1_ways, l1_ways)), stlb)
    dtlb = TlbHierarchy(Tlb(TlbConfig("DTLB", l1_sets * l1_ways, l1_ways)), stlb)
    model_stlb = ListTlb(stlb_sets, stlb_ways)
    model_itlb = ListTlbHierarchy(ListTlb(l1_sets, l1_ways), model_stlb)
    model_dtlb = ListTlbHierarchy(ListTlb(l1_sets, l1_ways), model_stlb)
    levels = {
        "i": (itlb.l1, model_itlb.l1),
        "d": (dtlb.l1, model_dtlb.l1),
        "s": (stlb, model_stlb),
    }
    for op in ops:
        name = op[0]
        if name in ("itranslate", "dtranslate"):
            hierarchy, model = (
                (itlb, model_itlb) if name == "itranslate" else (dtlb, model_dtlb)
            )
            addr = (op[1] << PAGE_SHIFT) + op[2]
            assert hierarchy.translate_packed(addr) == model.translate_packed(addr), op
        elif name == "flush":
            tlb, model_tlb = levels[op[1]]
            tlb.flush()
            for pages in model_tlb.sets:
                pages.clear()
        else:
            tlb, model_tlb = levels[op[1]]
            assert getattr(tlb, name)(op[2]) == getattr(model_tlb, name)(op[2]), op
        for hierarchy, model in ((itlb, model_itlb), (dtlb, model_dtlb)):
            assert vars(hierarchy.stats) == model.stats, op
        for tlb, model_tlb in levels.values():
            assert _tlb_contents(tlb) == model_tlb.sets, op
