"""struct-page metadata: refcounts, flags, compound pages, bulk ops."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelBug
from repro.mem import (
    HUGE_PAGE_ORDER,
    PG_ANON,
    PG_COMPOUND_HEAD,
    PG_COMPOUND_TAIL,
    PG_FILE,
    PageStructArray,
)
from repro.mem.page import add_at, has_duplicates


@pytest.fixture
def pages():
    return PageStructArray(4096)


class TestSingleOps:
    def test_alloc_initialises(self, pages):
        pages.on_alloc(5, PG_ANON)
        assert pages.get_ref(5) == 1
        assert pages.has_flags(5, PG_ANON)
        assert not pages.has_flags(5, PG_COMPOUND_HEAD | PG_COMPOUND_TAIL)

    def test_double_alloc_detected(self, pages):
        pages.on_alloc(5, PG_ANON)
        with pytest.raises(KernelBug):
            pages.on_alloc(5, PG_ANON)

    def test_ref_inc_dec(self, pages):
        pages.on_alloc(1, PG_ANON)
        assert pages.ref_inc(1) == 2
        assert pages.ref_dec(1) == 1
        assert pages.ref_dec(1) == 0

    def test_underflow_detected(self, pages):
        pages.on_alloc(1, PG_ANON)
        pages.ref_dec(1)
        with pytest.raises(KernelBug):
            pages.ref_dec(1)

    def test_flag_manipulation(self, pages):
        pages.on_alloc(3, PG_ANON)
        pages.set_flags(3, PG_FILE)
        assert pages.has_flags(3, PG_FILE)
        pages.clear_flags(3, PG_FILE)
        assert not pages.has_flags(3, PG_FILE)
        assert pages.has_flags(3, PG_ANON)

    def test_free_resets_everything(self, pages):
        pages.on_alloc(4, PG_ANON)
        pages.ref_inc(4)
        pages.on_free(4)
        assert pages.get_ref(4) == 0
        assert pages.flags[4] == 0


class TestCompoundPages:
    def test_compound_structure(self, pages):
        pages.on_alloc_compound(512, PG_ANON)
        assert pages.has_flags(512, PG_COMPOUND_HEAD | PG_ANON)
        assert not pages.has_flags(512, PG_COMPOUND_TAIL)
        for tail in (513, 700, 1023):
            assert pages.has_flags(tail, PG_COMPOUND_TAIL | PG_ANON)
            assert not pages.has_flags(tail, PG_COMPOUND_HEAD)
        # The span is exactly one order-9 block.
        assert pages.flags[511] == 0 and pages.flags[1024] == 0

    def test_compound_refcount_on_head_only(self, pages):
        pages.on_alloc_compound(512, PG_ANON)
        assert pages.get_ref(512) == 1
        assert pages.get_ref(513) == 0
        assert pages.live_frames() == 1

    def test_compound_free_clears_span(self, pages):
        span = np.arange(1024, 1024 + (1 << HUGE_PAGE_ORDER))
        pages.on_alloc_compound(1024, PG_ANON)
        pages.on_free(1024)
        assert (pages.flags[span] == 0).all()
        assert (pages.refcount[span] == 0).all()

    def test_compound_over_live_frames_detected(self, pages):
        pages.on_alloc(600, PG_ANON)
        with pytest.raises(KernelBug):
            pages.on_alloc_compound(512, PG_ANON)
        assert pages.get_ref(512) == 0
        assert pages.flags[512] == 0


class TestFreshArray:
    def test_fresh_columns_all_zero(self):
        """A fresh array's every per-frame column is zero, so the columns
        commit no host memory for frames that are never touched."""
        pages = PageStructArray(4096)
        columns = {name: value for name, value in vars(pages).items()
                   if isinstance(value, np.ndarray)}
        assert {"refcount", "flags"} <= set(columns)
        for name, column in columns.items():
            assert len(column) == pages.n_frames, name
            assert not column.any(), name


class TestBulkOps:
    def test_bulk_alloc_and_refcounts(self, pages):
        pfns = np.arange(10, 50, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        assert (pages.refcount[pfns] == 1).all()
        pages.ref_inc_bulk(pfns)
        assert (pages.refcount[pfns] == 2).all()

    def test_bulk_dec_returns_zeroed(self, pages):
        pfns = np.arange(10, 20, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        pages.ref_inc_bulk(pfns[:5])
        zeroed = pages.ref_dec_bulk(pfns)
        assert sorted(zeroed.tolist()) == list(range(15, 20))

    def test_bulk_with_duplicates(self, pages):
        pages.on_alloc(7, PG_ANON)
        dup = np.asarray([7, 7, 7], dtype=np.int64)
        pages.ref_inc_bulk(dup)
        assert pages.get_ref(7) == 4
        zeroed = pages.ref_dec_bulk(dup)
        assert pages.get_ref(7) == 1
        assert len(zeroed) == 0

    def test_bulk_underflow_detected(self, pages):
        pfns = np.asarray([3], dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        pages.ref_dec_bulk(pfns)
        with pytest.raises(KernelBug):
            pages.ref_dec_bulk(pfns)

    def test_bulk_free_resets(self, pages):
        pfns = np.arange(100, 200, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_FILE)
        pages.on_free_bulk(pfns)
        assert (pages.refcount[pfns] == 0).all()
        assert (pages.flags[pfns] == 0).all()

    def test_live_frames_counter(self, pages):
        assert pages.live_frames() == 0
        pages.on_alloc_bulk(np.arange(5, dtype=np.int64), PG_ANON)
        assert pages.live_frames() == 5


#: Inputs for the duplicate check, by shape: the linear test must prove
#: sorted-run shapes unique and fall back to the sort for everything else.
_INDEX_CASES = {
    "empty": [],
    "one": [5],
    "ascending": [1, 2, 3, 9, 40],
    "ascending-dup": [1, 2, 2, 9, 40],
    "descending": [40, 9, 3, 2, 1],
    "descending-dup": [40, 9, 9, 2, 1],
    "unsorted": [9, 1, 40, 3, 2],
    "unsorted-dup": [9, 1, 40, 1, 2],
    "disjoint-runs": [20, 21, 22, 1, 2, 3, 30, 31],
    "disjoint-runs-dup": [20, 21, 22, 1, 2, 22, 30, 31],
    "interleaved-runs": [1, 5, 9, 2, 6, 10],
    "interleaved-runs-dup": [1, 5, 9, 2, 5, 10],
}


def _block_runs(blocks):
    """Concatenated ascending blocks, like one batch of page tables."""
    return np.concatenate([np.arange(lo, lo + n) for lo, n in blocks]
                          or [np.empty(0, dtype=np.int64)])


class TestDuplicateCheck:
    @pytest.mark.parametrize("case", sorted(_INDEX_CASES))
    def test_has_duplicates(self, case):
        values = np.asarray(_INDEX_CASES[case], dtype=np.int64)
        assert has_duplicates(values) == case.endswith("-dup")

    @pytest.mark.parametrize("case", sorted(_INDEX_CASES))
    def test_add_at_matches_numpy(self, case):
        index = np.asarray(_INDEX_CASES[case], dtype=np.int64)
        got = np.zeros(64, dtype=np.int32)
        want = got.copy()
        add_at(got, index, -3)
        np.add.at(want, index, -3)
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(blocks=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 12)),
                           max_size=8),
           extra=st.lists(st.integers(0, 220), max_size=3))
    def test_block_runs_match_definition(self, blocks, extra):
        values = np.concatenate([_block_runs(blocks),
                                 np.asarray(extra, dtype=np.int64)])
        unique = len(np.unique(values)) == len(values)
        assert has_duplicates(values) == (not unique)
        got = np.zeros(256, dtype=np.int32)
        want = got.copy()
        add_at(got, values, 1)
        np.add.at(want, values, 1)
        assert np.array_equal(got, want)
