"""TLB model: hits, permission upgrades, flushes, eviction."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.paging import TLB

PAGE = 4096


class TestLookupInsert:
    def test_miss_then_hit(self):
        tlb = TLB()
        assert tlb.lookup(0x1000, is_write=False) is None
        tlb.insert(0x1000, pfn=7, writable=True)
        hit = tlb.lookup(0x1234, is_write=False)  # same page
        assert hit.pfn == 7
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1

    def test_write_through_readonly_entry_misses(self):
        tlb = TLB()
        tlb.insert(0x1000, pfn=7, writable=False)
        assert tlb.lookup(0x1000, is_write=False) is not None
        assert tlb.lookup(0x1000, is_write=True) is None

    def test_reinsert_upgrades(self):
        tlb = TLB()
        tlb.insert(0x1000, pfn=7, writable=False)
        tlb.insert(0x1000, pfn=7, writable=True)
        assert tlb.lookup(0x1000, is_write=True).pfn == 7
        assert len(tlb) == 1


class TestFlushes:
    def test_flush_all(self):
        tlb = TLB()
        for page in range(10):
            tlb.insert(page * 4096, pfn=page, writable=True)
        tlb.flush_all()
        assert len(tlb) == 0
        assert tlb.stats.flushes_full == 1

    def test_flush_range(self):
        tlb = TLB()
        for page in range(10):
            tlb.insert(page * 4096, pfn=page, writable=True)
        tlb.flush_range(2 * 4096, 5 * 4096)
        assert tlb.lookup(1 * 4096, False) is not None
        assert tlb.lookup(2 * 4096, False) is None
        assert tlb.lookup(4 * 4096, False) is None
        assert tlb.lookup(5 * 4096, False) is not None

    def test_flush_range_larger_than_cache(self):
        tlb = TLB()
        tlb.insert(0x5000, pfn=5, writable=True)
        tlb.flush_range(0, 1 << 30)
        assert len(tlb) == 0

    def test_flush_empty_range(self):
        tlb = TLB()
        tlb.insert(0x5000, pfn=5, writable=True)
        tlb.flush_range(0x9000, 0x9000)
        assert len(tlb) == 1

    def test_flush_page(self):
        tlb = TLB()
        tlb.insert(0x5000, pfn=5, writable=True)
        tlb.flush_page(0x5123)
        assert tlb.lookup(0x5000, False) is None


class TestCapacity:
    def test_fifo_eviction(self):
        tlb = TLB(capacity=4)
        for page in range(6):
            tlb.insert(page * 4096, pfn=page, writable=True)
        assert len(tlb) == 4
        assert tlb.stats.evictions == 2
        # Oldest entries evicted first.
        assert tlb.lookup(0, False) is None
        assert tlb.lookup(5 * 4096, False) is not None

    def test_hit_rate(self):
        tlb = TLB()
        tlb.insert(0, pfn=0, writable=True)
        tlb.lookup(0, False)
        tlb.lookup(4096, False)
        assert tlb.stats.hit_rate() == 0.5

class FifoModel:
    """The TLB's replacement rule as a plain list: oldest insertion first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []
        self.entries = {}
        self.hits = self.misses = self.evictions = 0

    def insert(self, vpn, pfn, writable):
        if vpn not in self.entries:
            if len(self.order) >= self.capacity:
                del self.entries[self.order.pop(0)]
                self.evictions += 1
            self.order.append(vpn)
        self.entries[vpn] = (pfn, writable)

    def lookup(self, vpn, is_write):
        entry = self.entries.get(vpn)
        if entry is None or (is_write and not entry[1]):
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def flush(self, first, last):
        for vpn in [v for v in self.order if first <= v <= last]:
            self.order.remove(vpn)
            del self.entries[vpn]


VPNS = st.integers(0, 11)
INSERT = st.tuples(st.just("insert"), VPNS, st.integers(0, 3), st.booleans())
LOOKUP = st.tuples(st.just("lookup"), VPNS, st.booleans())
# Inserts and lookups outweigh flushes so sequences reach capacity,
# evict, and re-insert cached pages.
OPS = st.lists(st.one_of(
    INSERT, INSERT, INSERT, INSERT, LOOKUP, LOOKUP,
    st.tuples(st.just("flush_page"), VPNS),
    st.tuples(st.just("flush_range"), VPNS, st.integers(0, 6)),
    st.tuples(st.just("flush_all"),),
), min_size=8, max_size=80)


def _fill(n):
    return [("insert", vpn, vpn, True) for vpn in range(n)]


@settings(max_examples=200)
@given(capacity=st.integers(1, 6), ops=OPS)
# Re-inserting a cached page keeps its FIFO place: page 0 is evicted.
@example(capacity=3, ops=_fill(3) + [("insert", 0, 9, False),
                                     ("insert", 3, 3, True)])
# A flushed page re-inserted goes to the back: page 1 is evicted.
@example(capacity=3, ops=_fill(3) + [("flush_page", 0),
                                     ("insert", 0, 0, True),
                                     ("insert", 3, 3, True)])
def test_tlb_matches_fifo_model(capacity, ops):
    tlb = TLB(capacity=capacity)
    model = FifoModel(capacity)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, vpn, pfn, writable = op
            tlb.insert(vpn * PAGE + 5, pfn=pfn, writable=writable)
            model.insert(vpn, pfn, writable)
        elif kind == "lookup":
            _, vpn, is_write = op
            hit = tlb.lookup(vpn * PAGE, is_write)
            expected = model.lookup(vpn, is_write)
            assert (None if hit is None else hit.pfn) == expected
        elif kind == "flush_page":
            tlb.flush_page(op[1] * PAGE)
            model.flush(op[1], op[1])
        elif kind == "flush_range":
            _, first, n_pages = op
            tlb.flush_range(first * PAGE, (first + n_pages) * PAGE)
            model.flush(first, first + n_pages - 1)
        else:
            tlb.flush_all()
            model.flush(0, 11)
        assert [vpn for vpn, _ in tlb.cached()] == model.order
    assert (tlb.stats.hits, tlb.stats.misses, tlb.stats.evictions) == (
        model.hits, model.misses, model.evictions)
