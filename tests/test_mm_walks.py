"""The two walks of an address space's paging tree (``MMStruct``):
``pmd_tables`` and ``present_slots``, and the calls they save."""

import pytest

from repro import (
    GIB,
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_HUGETLB,
    MAP_PRIVATE,
    MIB,
    Machine,
)
from repro.kernel.kernel import MADV_HUGEPAGE
from repro.kernel.mm import MMAP_FLOOR, MMStruct
from repro.paging import PMD_REGION_SIZE, VA_LIMIT, is_huge, is_present
from repro.paging.table import LEVEL_PMD, VA_BITS

#: A 1 GiB boundary, where one PMD table ends and the next begins.
GIB_EDGE = MMAP_FLOOR + GIB
FIXED = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED


def walk_each_slot(mm, start, end):
    """The reference: one ``walk_to_pmd`` per 2 MiB slot of the range,
    absent upper levels and absent entries skipped."""
    slots = []
    addr = start & ~(PMD_REGION_SIZE - 1)
    while addr < end:
        walked = mm.walk_to_pmd(addr, alloc=False)
        if walked is not None:
            pmd, index = walked
            entry = pmd.entries[index]
            if is_present(entry):
                slots.append((pmd, index, addr, int(entry)))
        addr += PMD_REGION_SIZE
    return slots


def mixed_process(machine):
    """Absent, 4 KiB, THP and hugetlb slots on both sides of GIB_EDGE:

    ``-8`` one page, ``-6`` absent, ``-4`` full, ``-2`` and ``0`` THP,
    ``+2`` hugetlb, ``+4`` absent, ``+6`` one page (MiB from the edge).
    """
    p = machine.spawn_process("mixed")
    low = p.mmap(6 * MIB, addr=GIB_EDGE - 8 * MIB, flags=FIXED)
    p.write(low, b"first page")
    p.touch_range(low + 4 * MIB, 2 * MIB)
    thp = p.mmap(4 * MIB, addr=GIB_EDGE - 2 * MIB, flags=FIXED)
    p.madvise(thp, 4 * MIB, MADV_HUGEPAGE)
    p.touch_range(thp, 4 * MIB, write=True)
    assert machine.run_khugepaged(p) == 2
    huge = p.mmap(2 * MIB, addr=GIB_EDGE + 2 * MIB,
                  flags=FIXED | MAP_HUGETLB)
    p.touch_range(huge, 2 * MIB, write=True)
    high = p.mmap(4 * MIB, addr=GIB_EDGE + 4 * MIB, flags=FIXED)
    p.write(high + 2 * MIB + 4096, b"last")
    return p


def record_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestPresentSlots:
    @pytest.mark.parametrize("start,end", [
        (GIB_EDGE - 8 * MIB, GIB_EDGE + 8 * MIB),
        (GIB_EDGE - 7 * MIB - 4096, GIB_EDGE + 6 * MIB + 8192),
        (GIB_EDGE - 1 * MIB, GIB_EDGE + 3 * MIB),
        (GIB_EDGE - 5 * MIB, GIB_EDGE - 3 * MIB),
        (MMAP_FLOOR, GIB_EDGE + GIB),
    ], ids=["whole", "mid-slot-ends", "edge-straddle", "below-edge",
            "two-tables"])
    def test_matches_a_walk_per_slot(self, machine, start, end):
        mm = mixed_process(machine).mm
        walked = [(pmd, index, slot, int(entry))
                  for pmd, index, slot, entry in mm.present_slots(start, end)]
        assert walked
        assert walked == walk_each_slot(mm, start, end)

    def test_the_mixed_process_has_every_kind_of_slot(self, machine):
        mm = mixed_process(machine).mm
        kinds = [("hugetlb" if mm.vmas.find(slot).is_hugetlb else "thp")
                 if is_huge(entry) else "4k"
                 for _, _, slot, entry in mm.present_slots()]
        assert kinds == ["4k", "4k", "thp", "thp", "hugetlb", "4k"]
        assert [base for _, base in mm.pmd_tables()] == [MMAP_FLOOR,
                                                        GIB_EDGE]

    def test_default_range_is_the_whole_tree(self, proc):
        """``pmd_tables`` lists every PMD table ``upper_tables`` lists,
        above the user half too."""
        mm = proc.mm
        bases = [MMAP_FLOOR, VA_LIMIT, (1 << VA_BITS) - GIB]
        for base in bases:
            mm.walk_to_pmd(base, alloc=True)
        assert [pmd for pmd, _ in mm.pmd_tables()] == [
            table for table in mm.upper_tables() if table.level == LEVEL_PMD]
        assert [base for _, base in mm.pmd_tables()] == bases

    def test_skips_a_slot_cleared_during_the_walk(self, proc):
        addr = proc.mmap(6 * MIB)
        proc.touch_range(addr, 6 * MIB, write=True)
        seen = []
        for _pmd, _index, slot_start, _entry in proc.mm.present_slots():
            if not seen:
                proc.munmap(addr + 4 * MIB, 2 * MIB)
            seen.append(slot_start)
        assert seen == [addr, addr + 2 * MIB]


class TestWalkCounts:
    def test_per_event_exit_resolves_each_leaf_once(self, monkeypatch):
        machine = Machine(phys_mb=2048, fastpath=False)
        p = machine.spawn_process("heap")
        buf = p.mmap(1 * GIB)
        p.touch_range(buf, 1 * GIB, write=True)
        kernel = machine.kernel
        one = record_calls(monkeypatch, kernel, "resolve_table")
        many = record_calls(monkeypatch, kernel, "resolve_tables")
        p.exit()
        assert kernel.fastpath_counts["exit_bailed.disabled"] == 1
        assert [len(pfns) for (pfns,) in many] == [512]
        assert len(one) == 4   # the PUD and the PMD table, walked twice

    def test_sparse_munmap_walks_present_slots_only(self, machine,
                                                    monkeypatch):
        p = machine.spawn_process("sparse")
        buf = p.mmap(1 * GIB)
        for i in range(8):
            p.write(buf + i * 64 * MIB, b"x")
        walks = record_calls(monkeypatch, MMStruct, "walk_to_pmd")
        resolves = record_calls(monkeypatch, machine.kernel, "resolve_table")
        p.munmap(buf, 1 * GIB)
        assert walks == []
        assert len(resolves) == 10   # the PUD, the PMD table, eight leaves
        assert p.mm.nr_pte_tables == 0
