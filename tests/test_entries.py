"""Paging-entry encodings: bit layout, helpers, array operations."""

from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

from repro.paging.entries import PFN_MASK, PFN_SHIFT
from repro.paging import (
    BIT_ACCESSED,
    BIT_DIRTY,
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_USER,
    clear_bits,
    entry_pfn,
    is_accessed,
    is_dirty,
    is_huge,
    is_present,
    is_writable,
    make_entry,
    present_mask,
    set_bits,
    writable_mask,
)


class TestScalarEntries:
    def test_roundtrip_pfn(self):
        for pfn in (0, 1, 12345, (1 << 30) - 1):
            entry = make_entry(pfn)
            assert entry_pfn(entry) == pfn

    def test_default_bits(self):
        entry = make_entry(7)
        assert is_present(entry)
        assert is_writable(entry)
        assert not is_huge(entry)
        assert not is_dirty(entry)
        assert not is_accessed(entry)

    def test_explicit_bits(self):
        entry = make_entry(7, writable=False, huge=True, accessed=True,
                           dirty=True)
        assert not is_writable(entry)
        assert is_huge(entry)
        assert is_accessed(entry)
        assert is_dirty(entry)

    def test_set_clear_bits(self):
        entry = make_entry(3, writable=False)
        entry = set_bits(entry, BIT_RW | BIT_DIRTY)
        assert is_writable(entry) and is_dirty(entry)
        entry = clear_bits(entry, BIT_RW)
        assert not is_writable(entry)
        assert is_dirty(entry)
        assert entry_pfn(entry) == 3

    def test_bit_values_match_x86(self):
        assert BIT_PRESENT == 1
        assert BIT_RW == 2
        assert BIT_USER == 4
        assert BIT_ACCESSED == 32
        assert BIT_DIRTY == 64
        assert BIT_PS == 128


class TestArrayOps:
    def test_present_mask(self):
        entries = np.zeros(8, dtype=np.uint64)
        entries[2] = make_entry(10)
        entries[5] = make_entry(11, present=False)
        mask = present_mask(entries)
        assert mask.tolist() == [False, False, True, False, False,
                                 False, False, False]

    def test_writable_mask(self):
        entries = np.asarray([make_entry(1), make_entry(2, writable=False)],
                             dtype=np.uint64)
        assert writable_mask(entries).tolist() == [True, False]

    def test_vectorised_pfn_extraction(self):
        entries = np.asarray([make_entry(p) for p in (5, 9, 1000)],
                             dtype=np.uint64)
        assert entry_pfn(entries).tolist() == [5, 9, 1000]

    def test_vectorised_rw_clear(self):
        entries = np.asarray([make_entry(p) for p in range(4)],
                             dtype=np.uint64)
        entries &= np.uint64(~BIT_RW)
        assert not writable_mask(entries).any()
        assert present_mask(entries).all()
        assert entry_pfn(entries).tolist() == [0, 1, 2, 3]


def _numpy_make_entry(pfn, writable=True, user=True, present=True,
                      huge=False, accessed=False, dirty=False):
    """The np.uint64 construction ``make_entry`` used before it built
    Python ints, kept as the reference."""
    entry = (np.uint64(pfn) << PFN_SHIFT) & PFN_MASK
    if present:
        entry |= BIT_PRESENT
    if writable:
        entry |= BIT_RW
    if user:
        entry |= BIT_USER
    if huge:
        entry |= BIT_PS
    if accessed:
        entry |= BIT_ACCESSED
    if dirty:
        entry |= BIT_DIRTY
    return entry


_FLAGS = ("writable", "user", "present", "huge", "accessed", "dirty")


class TestIntEntries:
    @settings(max_examples=200, deadline=None)
    @given(pfn=st.integers(0, (1 << 40) - 1), as_numpy=st.booleans())
    def test_matches_the_numpy_construction(self, pfn, as_numpy):
        arg = np.int64(pfn) if as_numpy else pfn
        for combo in range(1 << len(_FLAGS)):
            flags = {name: bool(combo >> bit & 1)
                     for bit, name in enumerate(_FLAGS)}
            entry = make_entry(arg, **flags)
            assert type(entry) is int
            assert entry == int(_numpy_make_entry(pfn, **flags)), flags

    def test_stores_and_reads_back_bit_for_bit(self):
        entries = np.zeros(2, dtype=np.uint64)
        entries[1] = make_entry((1 << 40) - 1, huge=True, accessed=True,
                                dirty=True)
        assert entries[1] == _numpy_make_entry(
            (1 << 40) - 1, huge=True, accessed=True, dirty=True)
        assert int(entry_pfn(entries[1])) == (1 << 40) - 1
