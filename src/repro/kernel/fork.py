"""Classic fork's address-space duplication (``copy_page_range``).

This is the baseline the paper measures against: at fork time the parent's
entire paging tree is replicated.  Upper levels are cheap (few nodes, §2.2);
the cost is the leaf loop — for every present PTE the kernel resolves the
``struct page`` (``vm_normal_page`` + ``compound_head``), bumps the page
refcount atomically, and write-protects private-COW entries in both parent
and child.  The loop here is vectorised per table, but charges exactly that
per-entry machinery to the clock, split across the Figure 3 hot spots, with
the struct-page portion scaled by the contention model when several forks
run at once.
"""

from __future__ import annotations

import numpy as np

from ..mem.page import PTRS_PER_TABLE
from ..paging.entries import (
    entry_pfn,
    is_huge,
    is_present,
    make_entry,
)
from ..paging.table import (
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    LEVEL_SPAN,
)
from .tableops import (
    DROP_RW,
    copy_references,
    private_cow_mask,
    write_protect,
)
from ..sancheck.annotations import (
    acquires,
    charge_deferred,
    must_hold,
    tlb_deferred,
)
from ..trace import points


#: Yielded by the fork walks after each slot; before it they yield the
#: slot's split-lock key (:func:`slot_lock_key`).
SLOT_DONE = "slot-done"


def slot_lock_key(entry):
    """The split-lock key of a present PMD slot: its leaf table's pfn, or
    ``None`` for a huge slot (no leaf table to lock)."""
    return None if is_huge(entry) else int(entry_pfn(entry))


def fault_lock_key(mm, vaddr):
    """The split-lock key guarding a fault at ``vaddr``.

    The leaf table's pfn when one exists (Linux keeps the PTL in the leaf
    table's struct page); the PMD table's pfn for an absent or huge slot;
    ``None`` when no PMD table covers the address yet (nothing allocated
    to contend on).
    """
    walked = mm.walk_to_pmd(vaddr, alloc=False)
    if walked is None:
        return None
    pmd_table, pmd_index = walked
    entry = pmd_table.entries[pmd_index]
    if is_present(entry) and not is_huge(entry):
        return slot_lock_key(entry)
    return int(pmd_table.pfn)


class ChildTreeBuilder:
    """Creates the child's upper paging levels lazily during a fork walk."""

    def __init__(self, child_mm):
        self.child_mm = child_mm
        self._pud_cache = {}
        self._pmd_cache = {}
        self.upper_tables_created = 0

    @must_hold("mmap_lock")
    @charge_deferred("the fork copy loops charge per-table costs; "
                     "upper-table construction is in the fork fixed cost")
    def pmd_for(self, slot_start):
        """The child PMD table and index covering ``slot_start``."""
        pmd_key = slot_start // LEVEL_SPAN[LEVEL_PUD]
        pmd = self._pmd_cache.get(pmd_key)
        if pmd is None:
            pud_key = slot_start // LEVEL_SPAN[LEVEL_PGD]
            pud = self._pud_cache.get(pud_key)
            child = self.child_mm
            # Covers both table allocations below; an OOM at either point
            # unwinds through _abort_fork, which tears the partial child
            # tree down like an exiting task's.
            child.kernel.failpoints.hit("fork.upper_table")
            if pud is None:
                pud = child.alloc_table(LEVEL_PUD)
                self.upper_tables_created += 1
                pgd_index = pud_key % PTRS_PER_TABLE
                child.pgd.set(pgd_index, make_entry(pud.pfn, writable=True, user=True))
                self._pud_cache[pud_key] = pud
            pmd = child.alloc_table(LEVEL_PMD)
            self.upper_tables_created += 1
            pud_index = pmd_key % PTRS_PER_TABLE
            pud.set(pud_index, make_entry(pmd.pfn, writable=True, user=True))
            self._pmd_cache[pmd_key] = pmd
        pmd_index = (slot_start // LEVEL_SPAN[LEVEL_PMD]) % PTRS_PER_TABLE
        return pmd, pmd_index

    @must_hold("mmap_lock")
    @charge_deferred("thin wrapper over pmd_for; same caller obligation")
    def pmd_table_for(self, table_base):
        """The child PMD table mirroring the parent table at ``table_base``."""
        return self.pmd_for(table_base)[0]


def clone_vmas(parent_mm, child_mm):
    """Copy the parent's VMA list into the child."""
    for vma in parent_mm.vmas:
        child_mm.add_vma(vma.clone())


@must_hold("mmap_lock")
def begin_classic_copy(kernel, parent_mm, child_mm):
    """Fixed-cost prologue: task/VMA duplication and the child tree root."""
    kernel.cost.charge_fork_fixed(len(parent_mm.vmas))
    clone_vmas(parent_mm, child_mm)
    return ChildTreeBuilder(child_mm)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("write-protects parent COW entries; finish_classic_copy shoots the parent down once for the whole copy")
def classic_copy_slot(kernel, parent_mm, child_mm, builder, pmd, pmd_index,
                      slot_start):
    """Copy one present PMD slot (2 MiB) from parent to child; returns 1
    when it copied a leaf table, 0 for a huge entry.

    Failure-atomic at slot granularity: the only fallible operations are
    the table allocations at the top, so an OOM here leaves the child
    with complete slots only (plus possibly empty upper tables), which
    ``Kernel._abort_fork`` tears down like a normal exit.
    """
    kernel.failpoints.hit("fork.copy_slot")
    cost = kernel.cost
    entry = pmd.entries[pmd_index]
    child_pmd, child_index = builder.pmd_for(slot_start)

    if is_huge(entry):
        head = int(entry_pfn(entry))
        kernel.pages.ref_inc(head)
        if _slot_needs_cow(parent_mm, slot_start):
            entry &= DROP_RW
            pmd.entries[pmd_index] = entry
        child_pmd.entries[child_index] = entry
        cost.charge_copy_huge_entries(1)
        if points.enabled:
            points.tracepoint("fork.copy_slot", slot_start=slot_start,
                              huge=True, n_present=1)
        return 0

    parent_pfn = int(entry_pfn(entry))
    parent_leaf = parent_mm.resolve(parent_pfn)
    kernel.san_access("pt", parent_pfn)
    child_leaf = child_mm.alloc_table(LEVEL_PTE, copy_of=parent_leaf)
    child_leaf.copy_entries_from(parent_leaf)

    cow_mask = private_cow_mask(parent_mm, slot_start)
    if cow_mask.any():
        all_cow = cow_mask.all()
        write_protect(child_leaf.entries, cow_mask, all_cow)
        if len(parent_leaf.sharers) == 1:
            # Dedicated parent table: write-protect it too, exactly as
            # copy_one_pte does.  A shared parent table is left alone —
            # its PMD entry already has RW=0, which protects every
            # sharer, and the table-COW protocol owns its entry bits.
            write_protect(parent_leaf.entries, cow_mask, all_cow)
            kernel.note_table_write(
                parent_leaf,
                PTRS_PER_TABLE if all_cow else int(np.count_nonzero(cow_mask)))
    # Populating the fresh (auto-replicated) child table is a coherence
    # event under Mitosis; the copy itself reads the parent's frame.
    kernel.note_table_write(child_leaf, PTRS_PER_TABLE)
    kernel.charge_numa_copy(parent_leaf.pfn)

    pfns = copy_references(kernel, child_leaf.entries)
    cost.charge_pte_table_alloc()
    cost.charge_copy_pte_entries(len(pfns))
    child_pmd.set(child_index, make_entry(child_leaf.pfn, writable=True, user=True))
    if points.enabled:
        points.tracepoint("fork.copy_slot", slot_start=slot_start,
                          huge=False, n_present=len(pfns))
    return 1


@must_hold("mmap_lock")
def finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf_tables,
                        n_huge_entries):
    """Epilogue: warm-up/fixed charges, lineage, and the parent shootdown."""
    cost = kernel.cost
    if n_leaf_tables:
        # First-touch misses on struct page and allocator state; huge-only
        # address spaces skip this, which is most of Figure 4's advantage.
        cost.charge_fork_warmup()
    elif n_huge_entries:
        cost.charge_huge_fork_fixed()
    cost.charge_upper_copy(builder.upper_tables_created)
    child_mm.odf_lineage = parent_mm.odf_lineage
    # Write-protecting private-COW entries invalidates writable
    # translations on every CPU running the parent's address space.
    kernel.tlbs.shootdown_mm(parent_mm)
    kernel.stats.forks += 1
    if points.enabled:
        points.tracepoint("fork.copy_done",
                          leaf_tables=n_leaf_tables,
                          huge_entries=n_huge_entries,
                          upper_tables=builder.upper_tables_created)


@must_hold("mmap_lock", "ptl")
def classic_copy_walk(kernel, parent_mm, child_mm):
    """Classic fork's copy as a generator over the parent's slots.

    Yields each present slot's :func:`slot_lock_key` before copying it
    and :data:`SLOT_DONE` after: the caller holds that split lock across
    the slot.  :func:`copy_mm_classic` drains it; the SMP fork flow takes
    the lock and lets other vCPUs run between slots.
    """
    builder = begin_classic_copy(kernel, parent_mm, child_mm)
    n_slots = n_leaf_tables = 0
    for pmd, pmd_index, slot_start, entry in parent_mm.present_slots():
        yield slot_lock_key(entry)
        n_leaf_tables += classic_copy_slot(kernel, parent_mm, child_mm,
                                           builder, pmd, pmd_index,
                                           slot_start)
        n_slots += 1
        yield SLOT_DONE
    finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf_tables,
                        n_slots - n_leaf_tables)


@must_hold("mmap_lock")
@acquires("ptl")
def copy_mm_classic(kernel, parent_mm, child_mm):
    """Duplicate ``parent_mm`` into ``child_mm`` the traditional way."""
    for _ in classic_copy_walk(kernel, parent_mm, child_mm):
        pass


def _slot_needs_cow(mm, slot_start):
    """Whether the (single) hugetlb VMA over this slot is private-COW."""
    vma = mm.vmas.find(slot_start)
    return vma is not None and vma.needs_cow
