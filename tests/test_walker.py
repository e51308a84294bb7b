"""Software MMU: translation, hierarchical attributes, A/D bits."""

import pytest

from repro.paging import (
    BIT_RW,
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    FAULT_NOT_PRESENT,
    FAULT_WRITE_PROTECTED,
    MMUFault,
    PageTable,
    Walker,
    is_accessed,
    is_dirty,
    make_entry,
    table_index,
)
from repro.paging.store import EntryStore


def build_tree(vaddr, leaf_pfn, pmd_writable=True, pte_writable=True,
               huge=False):
    """A minimal 4-level tree mapping one address; returns (pgd, tables)."""
    tables = {}
    store = EntryStore()

    def register(table):
        tables[table.pfn] = table
        return table

    next_pfn = [100]

    def fresh(level):
        next_pfn[0] += 1
        return register(PageTable(level, next_pfn[0], store))

    pgd = register(PageTable(LEVEL_PGD, 100, store))
    pud = fresh(LEVEL_PUD)
    pmd = fresh(LEVEL_PMD)
    pgd.set(table_index(vaddr, LEVEL_PGD), make_entry(pud.pfn))
    pud.set(table_index(vaddr, LEVEL_PUD), make_entry(pmd.pfn))
    if huge:
        pmd.set(table_index(vaddr, LEVEL_PMD),
                make_entry(leaf_pfn, writable=pmd_writable, huge=True))
        return pgd, tables, pmd, None
    pte = fresh(LEVEL_PTE)
    pmd.set(table_index(vaddr, LEVEL_PMD),
            make_entry(pte.pfn, writable=pmd_writable))
    pte.set(table_index(vaddr, LEVEL_PTE),
            make_entry(leaf_pfn, writable=pte_writable))
    return pgd, tables, pmd, pte


VADDR = (5 << 30) | (3 << 21) | (17 << 12) | 0x123


class TestTranslation:
    def test_simple_translation(self):
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=777)
        walker = Walker(tables.__getitem__)
        tr = walker.translate(pgd, VADDR, is_write=False)
        assert tr.pfn == 777
        assert tr.writable
        # Four tables visited: the leaf is a PTE.
        assert len(walker.path) == 4

    def test_not_present_faults(self):
        pgd, tables, _, pte = build_tree(VADDR, leaf_pfn=777)
        pte.clear(table_index(VADDR, LEVEL_PTE))
        walker = Walker(tables.__getitem__)
        with pytest.raises(MMUFault) as excinfo:
            walker.translate(pgd, VADDR, is_write=False)
        assert excinfo.value.reason == FAULT_NOT_PRESENT
        assert excinfo.value.level == LEVEL_PTE

    def test_missing_upper_level_faults(self):
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=777)
        walker = Walker(tables.__getitem__)
        other = VADDR + (1 << 39)
        with pytest.raises(MMUFault) as excinfo:
            walker.translate(pgd, other, is_write=False)
        assert excinfo.value.level == LEVEL_PGD

    def test_write_to_readonly_pte_faults(self):
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=1, pte_writable=False)
        walker = Walker(tables.__getitem__)
        with pytest.raises(MMUFault) as excinfo:
            walker.translate(pgd, VADDR, is_write=True)
        assert excinfo.value.reason == FAULT_WRITE_PROTECTED

    def test_hierarchical_attribute_override(self):
        """The On-demand-fork mechanism: PMD RW=0 blocks writes even when
        the PTE says writable."""
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=1,
                                       pmd_writable=False, pte_writable=True)
        walker = Walker(tables.__getitem__)
        # Reads translate fine ("fast read" in Figure 6).
        tr = walker.translate(pgd, VADDR, is_write=False)
        assert tr.pfn == 1
        assert not tr.writable
        # Writes fault at the leaf despite PTE RW=1.
        with pytest.raises(MMUFault) as excinfo:
            walker.translate(pgd, VADDR, is_write=True)
        assert excinfo.value.reason == FAULT_WRITE_PROTECTED

    def test_huge_translation(self):
        head = 4096  # 2 MiB aligned pfn
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=head, huge=True)
        walker = Walker(tables.__getitem__)
        tr = walker.translate(pgd, VADDR, is_write=True)
        assert tr.writable
        # The walk stops at the PMD: three tables visited.
        assert len(walker.path) == 3
        # Sub-page offset within the compound page.
        assert tr.pfn == head + ((VADDR >> 12) & 511)


class TestAccessedDirtyBits:
    def test_accessed_set_along_walk(self):
        pgd, tables, pmd, pte = build_tree(VADDR, leaf_pfn=9)
        walker = Walker(tables.__getitem__)
        walker.translate(pgd, VADDR, is_write=False)
        assert is_accessed(pgd.entries[table_index(VADDR, LEVEL_PGD)])
        assert is_accessed(pmd.entries[table_index(VADDR, LEVEL_PMD)])
        assert is_accessed(pte.entries[table_index(VADDR, LEVEL_PTE)])

    def test_dirty_set_only_on_write(self):
        pgd, tables, _, pte = build_tree(VADDR, leaf_pfn=9)
        walker = Walker(tables.__getitem__)
        walker.translate(pgd, VADDR, is_write=False)
        index = table_index(VADDR, LEVEL_PTE)
        assert not is_dirty(pte.entries[index])
        walker.translate(pgd, VADDR, is_write=True)
        assert is_dirty(pte.entries[index])

    def test_dirty_never_set_through_protected_pmd(self):
        """§3.2: the D bit cannot appear while the table is shared, because
        the PMD override turns every write into a fault."""
        pgd, tables, _, pte = build_tree(VADDR, leaf_pfn=9,
                                         pmd_writable=False)
        walker = Walker(tables.__getitem__)
        with pytest.raises(MMUFault):
            walker.translate(pgd, VADDR, is_write=True)
        assert not is_dirty(pte.entries[table_index(VADDR, LEVEL_PTE)])

    def test_probe_has_no_side_effects(self):
        pgd, tables, _, pte = build_tree(VADDR, leaf_pfn=9)
        walker = Walker(tables.__getitem__)
        tr = walker.probe(pgd, VADDR)
        assert tr.pfn == 9
        assert not is_accessed(pte.entries[table_index(VADDR, LEVEL_PTE)])
        assert walker.probe(pgd, VADDR + (1 << 39)) is None


class TestFaultMessage:
    def test_message_reads_as_before(self):
        # The message is built when printed, not when the walk raises.
        assert str(MMUFault(0x7F00_0020_1000, True, LEVEL_PTE,
                            FAULT_WRITE_PROTECTED)) == \
            "#PF at 0x7f0000201000 (write, level 1, write_protected)"
        assert str(MMUFault(0x1000, False, LEVEL_PGD, FAULT_NOT_PRESENT)) \
            == "#PF at 0x1000 (read, level 4, not_present)"

    def test_raised_fault_carries_its_fields(self):
        pgd, tables, _, _ = build_tree(VADDR, leaf_pfn=9, pte_writable=False)
        walker = Walker(tables.__getitem__)
        with pytest.raises(MMUFault, match=r"^#PF at .* \(write, level 1, "
                                           r"write_protected\)$") as info:
            walker.translate(pgd, VADDR, is_write=True)
        fault = info.value
        assert (fault.vaddr, fault.is_write, fault.level, fault.reason) == \
            (VADDR, True, LEVEL_PTE, FAULT_WRITE_PROTECTED)
