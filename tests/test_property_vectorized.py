"""Property tests for the packed-entry layout and the vectorised fast path.

Four families, each pinning one layer of the vectorisation stack:

* random PTE bit patterns round-trip through :class:`EntryStore`
  (scatter/gather/row_view) without loss and without cross-row bleed;
* the vectorised entry predicates agree with their scalar counterparts
  on arbitrary bit patterns;
* random copy/protect/scan slice ranges produce the same entries a
  byte-wise Python loop produces (the off-by-one trap the bulk paths
  must never fall into);
* :meth:`CostModel.charge_many` is clock- and profiler-identical to the
  per-event ``charge`` loop it replaces, across random event sequences
  including zero-cost events (which must not consume noise draws), and
  the buddy allocator's analytic contiguous free is state-identical to
  its generic pairing loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro import Machine
from repro.mem.buddy import MAX_ORDER, BuddyAllocator, _member_mask
from repro.paging import entries as entries_module
from repro.paging.entries import (
    BIT_ACCESSED,
    BIT_DIRTY,
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_SWAP,
    entry_pfn,
    is_present,
    is_writable,
    present_mask,
    present_pfns,
    writable_mask,
)
from repro.paging.store import CHUNK_ROWS, RELEASE_PER_CHUNK, EntryStore
from repro.timing.costs import (
    FN_COMPOUND_HEAD,
    FN_COPY_ONE_PTE,
    FN_HUGE_COPY,
    FN_PAGE_REF_INC,
    FN_PTE_ALLOC,
    FN_READ_ONCE,
    FN_TABLE_FREE,
    FN_TABLE_UNSHARE_DEC,
    FN_VM_NORMAL_PAGE,
    FN_ZAP_PTE,
)

ALL_FN_NAMES = [
    FN_PTE_ALLOC, FN_COMPOUND_HEAD, FN_PAGE_REF_INC, FN_READ_ONCE,
    FN_VM_NORMAL_PAGE, FN_COPY_ONE_PTE, FN_HUGE_COPY, FN_ZAP_PTE,
    FN_TABLE_UNSHARE_DEC, FN_TABLE_FREE,
]

entries_arrays = st.lists(
    st.integers(0, 2**64 - 1), min_size=1, max_size=512
).map(lambda xs: np.array(xs, dtype=np.uint64))

full_tables = st.lists(
    st.integers(0, 2**64 - 1), min_size=512, max_size=512
).map(lambda xs: np.array(xs, dtype=np.uint64))


class TestEntryStoreRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(tables=st.lists(full_tables, min_size=1, max_size=6),
           data=st.data())
    def test_scatter_gather_round_trip(self, tables, data):
        store = EntryStore()
        rows = [store.acquire() for _ in tables]
        matrix = np.stack(tables)
        store.scatter(np.array(rows), matrix)
        got = store.gather(np.array(rows))
        assert np.array_equal(got, matrix)
        # row views see the same bits the bulk path wrote…
        for row, table in zip(rows, tables):
            assert np.array_equal(store.row_view(row), table)
        # …and releasing one row never bleeds into its neighbours.
        victim = data.draw(st.integers(0, len(rows) - 1))
        store.release([rows[victim]])
        assert not store.row_view(rows[victim]).any()
        for i, row in enumerate(rows):
            if i != victim:
                assert np.array_equal(store.row_view(row), tables[i])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 40))
    def test_recycled_rows_come_back_zeroed(self, n):
        store = EntryStore()
        rows = [store.acquire() for _ in range(n)]
        for row in rows:
            store.row_view(row)[:] = np.uint64(0xDEAD)
            store.release([row])
        again = [store.acquire() for _ in range(n)]
        for row in again:
            assert not store.row_view(row).any()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_batch_release_zeroes_only_its_rows(self, data):
        # A batch large enough to be zeroed per chunk, spanning chunks.
        store = EntryStore()
        rows = [store.acquire() for _ in range(CHUNK_ROWS + 64)]
        for row in rows:
            store.row_view(row)[:] = np.uint64(row + 1)
        picked = data.draw(st.lists(st.sampled_from(rows), unique=True,
                                    min_size=RELEASE_PER_CHUNK,
                                    max_size=3 * RELEASE_PER_CHUNK))
        store.release(picked)
        released = set(picked)
        for row in rows:
            view = store.row_view(row)
            assert (not view.any()) if row in released else (view == row + 1).all()
        # Recycled in release order: the last released comes back first.
        assert store.acquire() == picked[-1]

    def test_chunk_growth_keeps_views_alive(self):
        store = EntryStore()
        first = store.acquire()
        view = store.row_view(first)
        view[0] = np.uint64(41)
        for _ in range(CHUNK_ROWS + 5):   # force a second chunk
            store.acquire()
        view[0] += np.uint64(1)
        assert int(store.row_view(first)[0]) == 42


class TestVectorizedPredicates:
    @settings(max_examples=60, deadline=None)
    @given(arr=entries_arrays)
    def test_masks_match_scalar_predicates(self, arr):
        assert present_mask(arr).tolist() == [bool(is_present(e)) for e in arr]
        assert writable_mask(arr).tolist() == [
            bool(is_writable(e)) for e in arr]
        pfns = entry_pfn(arr)
        for i, e in enumerate(arr):
            assert int(pfns[i]) == int(entry_pfn(e))


def _mixed_entries(seed, n_rows, all_present):
    """A ``(n_rows, 512)`` matrix of present, huge, swap and absent
    entries with random attribute and high bits (present and huge only
    when ``all_present``)."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, 512)
    bits = rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False)
    kind = rng.integers(0, 2 if all_present else 4, shape)
    present = bits | BIT_PRESENT
    matrix = np.where(kind == 0, present & ~BIT_PS, present | BIT_PS)
    swap = (bits & ~BIT_PRESENT) | BIT_SWAP
    matrix = np.where(kind == 2, swap, matrix)
    return np.where(kind == 3, bits & ~BIT_PRESENT & ~BIT_SWAP, matrix)


class TestPresentPfns:
    """The fused present/pfn pass vs ``present_mask`` + ``entry_pfn``."""

    @staticmethod
    def _check(entries):
        before = entries.copy()
        present, pfns = present_pfns(entries)
        expected = present_mask(entries)
        assert present.dtype == bool and np.array_equal(present, expected)
        assert pfns.dtype == np.int64
        assert np.array_equal(pfns,
                              entry_pfn(entries[expected]).astype(np.int64))
        assert np.array_equal(entries, before)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 4),
           all_present=st.booleans(), low_byte_first=st.booleans())
    def test_matches_mask_and_entry_pfn(self, seed, n_rows, all_present,
                                        low_byte_first):
        matrix = _mixed_entries(seed, n_rows, all_present)
        with pytest.MonkeyPatch.context() as patch:
            # False forces the fallback a big-endian host takes.
            patch.setattr(entries_module, "LOW_BYTE_FIRST", low_byte_first)
            self._check(matrix)
            self._check(matrix[0])           # one table's row view
            self._check(matrix[:, ::3])      # non-contiguous last axis
        assert present_mask(matrix).all() or not all_present


class TestSliceRangeEquivalence:
    """Vectorised slice ops vs the byte-wise loop, on random [lo, hi)."""

    @settings(max_examples=60, deadline=None)
    @given(table=full_tables, bounds=st.tuples(st.integers(0, 512),
                                               st.integers(0, 512)))
    def test_protect_slice_matches_loop(self, table, bounds):
        lo, hi = min(bounds), max(bounds)
        vec = table.copy()
        vec[lo:hi] &= np.uint64(~BIT_RW)
        ref = table.copy()
        for i in range(lo, hi):
            ref[i] = ref[i] & np.uint64(~BIT_RW)
        assert np.array_equal(vec, ref)

    @settings(max_examples=60, deadline=None)
    @given(table=full_tables, bounds=st.tuples(st.integers(0, 512),
                                               st.integers(0, 512)))
    def test_accessed_dirty_slice_matches_loop(self, table, bounds):
        lo, hi = min(bounds), max(bounds)
        bits = BIT_ACCESSED | BIT_DIRTY
        vec = table.copy()
        sub = vec[lo:hi]
        sub[present_mask(sub)] |= bits
        ref = table.copy()
        for i in range(lo, hi):
            if is_present(ref[i]):
                ref[i] = ref[i] | bits
        assert np.array_equal(vec, ref)

    @settings(max_examples=60, deadline=None)
    @given(table=full_tables, bounds=st.tuples(st.integers(0, 512),
                                               st.integers(0, 512)))
    def test_present_scan_matches_loop(self, table, bounds):
        lo, hi = min(bounds), max(bounds)
        sub = table[lo:hi]
        vec_count = int(np.count_nonzero(present_mask(sub)))
        vec_pfns = entry_pfn(sub[present_mask(sub)]).tolist()
        ref_pfns = [int(entry_pfn(e)) for e in table[lo:hi] if is_present(e)]
        assert vec_count == len(ref_pfns)
        assert vec_pfns == ref_pfns


events = st.lists(
    st.tuples(st.integers(0, len(ALL_FN_NAMES) - 1),
              st.one_of(st.just(0.0),
                        st.floats(0.0, 5e4, allow_nan=False))),
    min_size=1, max_size=200,
)


class TestChargeManyEquivalence:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seq=events, split=st.integers(1, 5))
    def test_charge_many_matches_per_event_loop(self, seq, split):
        m_loop = Machine(phys_mb=64)
        m_bulk = Machine(phys_mb=64)
        cost_loop = m_loop.kernel.cost
        cost_bulk = m_bulk.kernel.cost
        for fn_id, ns in seq:
            cost_loop.charge(ALL_FN_NAMES[fn_id], ns)
        # The bulk side splits the sequence into a few charge_many calls
        # to also cross the noise buffer's refill boundaries differently.
        chunks = np.array_split(np.arange(len(seq)), split)
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            ids = [seq[i][0] for i in chunk]
            ns = [seq[i][1] for i in chunk]
            cost_bulk.charge_many(ids, ns, ALL_FN_NAMES)
        assert (m_loop.kernel.clock.now_ns
                == m_bulk.kernel.clock.now_ns)
        prof_loop = cost_loop.profiler
        prof_bulk = cost_bulk.profiler
        if prof_loop is not None and prof_bulk is not None:
            assert prof_loop._totals == prof_bulk._totals


class TestContiguousFreeEquivalence:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.sampled_from([64, 257, 1024, 2048]), data=st.data())
    def test_analytic_free_matches_pairing_loop(self, n, data):
        a_ref = BuddyAllocator(n)
        a_fast = BuddyAllocator(n)
        k = data.draw(st.integers(1, n - 1))
        p_ref = a_ref.alloc_bulk(k)
        p_fast = a_fast.alloc_bulk(k)
        assert np.array_equal(p_ref, p_fast)
        lo = data.draw(st.integers(0, k - 1))
        hi = data.draw(st.integers(lo + 1, k))
        run = np.sort(p_ref)[lo:hi]
        if int(run[-1]) - int(run[0]) != run.size - 1:
            return  # allocation wasn't contiguous here; nothing to compare
        self._generic_free(a_ref, run)
        a_fast.free_bulk(run)
        assert self._snap(a_ref) == self._snap(a_fast)
        a_ref.check_consistency()
        a_fast.check_consistency()

    @staticmethod
    def _snap(a):
        return (a.free_frames, [list(l) for l in a._free_lists],
                dict(a._free_heads), a._stamp_counter,
                a._alloc_order.tolist())

    @staticmethod
    def _generic_free(a, pfns):
        """The pre-analytic pairing loop, verbatim, as the reference."""
        heads = np.sort(np.asarray(pfns, dtype=np.int64))
        a._alloc_order[heads] = 0
        order = 0
        while order < MAX_ORDER and heads.size > 1:
            step = 1 << order
            aligned = heads[heads % (2 * step) == 0]
            if aligned.size == 0:
                break
            partners = aligned + step
            merged = aligned[_member_mask(heads, partners)]
            if merged.size == 0:
                break
            consumed = (_member_mask(merged, heads)
                        | _member_mask(merged + step, heads))
            for h in heads[~consumed].tolist():
                a._insert_free(h, order)
            heads = merged
            order += 1
        for h in heads.tolist():
            a._insert_free(h, order)
