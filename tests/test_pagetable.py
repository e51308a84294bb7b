"""PageTable nodes and virtual-address arithmetic."""

import pytest

from repro.errors import InvalidArgumentError, KernelBug
from repro.paging import (
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    LEVEL_SPAN,
    PMD_REGION_SIZE,
    TABLE_SPAN,
    PageTable,
    level_base,
    make_entry,
    page_align_down,
    page_align_up,
    page_number,
    page_offset,
    table_index,
)
from repro.paging.store import EntryStore


class TestAddressArithmetic:
    def test_level_spans(self):
        assert LEVEL_SPAN[LEVEL_PTE] == 4096
        assert LEVEL_SPAN[LEVEL_PMD] == 2 * 1024 * 1024
        assert LEVEL_SPAN[LEVEL_PUD] == 1 << 30
        assert LEVEL_SPAN[LEVEL_PGD] == 1 << 39
        assert PMD_REGION_SIZE == LEVEL_SPAN[LEVEL_PMD]
        for level in (LEVEL_PTE, LEVEL_PMD, LEVEL_PUD, LEVEL_PGD):
            assert TABLE_SPAN[level] == LEVEL_SPAN[level] * 512

    def test_table_index_decomposition(self):
        vaddr = (3 << 39) | (7 << 30) | (12 << 21) | (400 << 12) | 123
        assert table_index(vaddr, LEVEL_PGD) == 3
        assert table_index(vaddr, LEVEL_PUD) == 7
        assert table_index(vaddr, LEVEL_PMD) == 12
        assert table_index(vaddr, LEVEL_PTE) == 400

    def test_level_base(self):
        vaddr = 5 * PMD_REGION_SIZE + 12345
        assert level_base(vaddr, LEVEL_PMD) == 5 * PMD_REGION_SIZE
        assert level_base(vaddr, LEVEL_PTE) == page_align_down(vaddr)

    def test_page_helpers(self):
        assert page_number(8192 + 5) == 2
        assert page_offset(8192 + 5) == 5
        assert page_align_down(8193) == 8192
        assert page_align_up(8193) == 12288
        assert page_align_up(8192) == 8192


class TestPageTable:
    def test_fresh_table_empty(self):
        table = PageTable(LEVEL_PTE, pfn=1, store=EntryStore())
        assert table.is_empty()
        assert table.present_count() == 0
        assert len(table.entries) == 512

    def test_set_get_clear(self):
        table = PageTable(LEVEL_PTE, pfn=1, store=EntryStore())
        table.set(100, make_entry(55))
        assert table.is_present(100)
        assert table.child_pfn(100) == 55
        table.clear(100)
        assert not table.is_present(100)

    def test_child_pfn_of_absent_entry_is_bug(self):
        table = PageTable(LEVEL_PMD, pfn=1, store=EntryStore())
        with pytest.raises(KernelBug):
            table.child_pfn(0)

    def test_present_indices(self):
        table = PageTable(LEVEL_PTE, pfn=1, store=EntryStore())
        for index in (1, 50, 511):
            table.set(index, make_entry(index))
        assert table.present_indices().tolist() == [1, 50, 511]
        assert table.present_count() == 3

    def test_copy_entries_from(self):
        store = EntryStore()
        src = PageTable(LEVEL_PTE, pfn=1, store=store)
        src.set(9, make_entry(99))
        dst = PageTable(LEVEL_PTE, pfn=2, store=store)
        dst.copy_entries_from(src)
        assert dst.child_pfn(9) == 99
        # Independent arrays after the copy.
        src.clear(9)
        assert dst.is_present(9)

    def test_invalid_level(self):
        with pytest.raises(InvalidArgumentError):
            PageTable(0, pfn=1, store=EntryStore())
        with pytest.raises(InvalidArgumentError):
            PageTable(5, pfn=1, store=EntryStore())
