"""Unmapping and address-space teardown.

``zap_range`` is the engine behind ``munmap``, ``mremap`` shrinking and
``MADV_DONTNEED``; process exit releases a whole PMD table at a time.
Their interaction with shared PTE tables implements §3.3 of the paper:

* a shared table whose whole 2 MiB slot is being unmapped is released by
  leaving its sharer list (the §3.5 count is the list's length) — the
  entries must be *preserved* because other processes in the fork lineage
  still translate through them;
* a shared table that is only partially unmapped is first copied
  (copy-on-write applied to the unmap operation itself), and the copy is
  then zapped like any dedicated table.

Teardown cost is a first-class part of the model: the paper's fuzzing
workloads are bounded by fork + child-exit, and the per-entry
``zap_pte_range`` work (refcount decrements, free batching) is what makes
classic fork's exits expensive while odfork children exit in microseconds.
The per-event exit resolves a PMD table's leaf tables once and drops
the shared ones first, in one batch
(:func:`~repro.kernel.tableops.drop_shared_tables`, which the exit fast
path calls too), mirroring how cheap the real operation is: one sharer
removal per table, no per-page work.  Nothing here keeps RSS:
:meth:`~repro.kernel.mm.MMStruct.rss_counts` reads it from the tables.
"""

from __future__ import annotations
from ..sancheck.annotations import acquires, must_hold, tlb_deferred

import numpy as np

from ..errors import InvalidArgumentError, KernelBug
from ..mem.page import PAGE_SIZE, PTRS_PER_TABLE
from ..paging.entries import (
    BIT_PS,
    ENTRY_NONE,
    entry_pfn,
    is_huge,
    present_mask,
)
from ..paging.table import LEVEL_PMD, PMD_REGION_SIZE
from .tableops import (
    copy_shared_pte_table,
    drop_references,
    drop_shared_tables,
    put_pte_table,
)


@must_hold("mmap_lock")
@acquires("ptl")
def zap_range(kernel, mm, start, end):
    """Clear all translations for ``[start, end)`` and release pages."""
    if start % PAGE_SIZE or end % PAGE_SIZE:
        raise InvalidArgumentError("zap range must be page-aligned")
    for pmd_table, pmd_index, slot_start, entry in mm.present_slots(start, end):
        _zap_pmd_slot(kernel, mm, pmd_table, pmd_index, entry, slot_start,
                      max(start, slot_start),
                      min(end, slot_start + PMD_REGION_SIZE))
    # Freed frames must not stay reachable through any CPU's TLB.
    kernel.tlbs.shootdown_mm(mm, start, end)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the range down after the walk")
def _zap_pmd_slot(kernel, mm, pmd_table, pmd_index, entry, slot_start, lo,
                  hi):
    """Clear ``[lo, hi)`` of the present 2 MiB slot at ``slot_start``."""
    whole_slot = lo == slot_start and hi == slot_start + PMD_REGION_SIZE
    if is_huge(entry):
        if whole_slot:
            _zap_huge(kernel, pmd_table, pmd_index)
            return
        # A partially unmapped THP region (the syscalls refuse to cut a
        # hugetlb one): split back to 4 KiB pages, then zap the leaf like
        # any other.
        from .thp import split_huge_entry
        leaf = split_huge_entry(kernel, mm, pmd_table, pmd_index, slot_start)
    else:
        leaf = mm.resolve(int(entry_pfn(entry)))
    if len(leaf.sharers) > 1:
        if whole_slot:
            # §3.3 fast path: drop our reference, preserve the entries
            # for the other sharers.
            pmd_table.clear(pmd_index)
            put_pte_table(kernel, mm, leaf)
            return
        # §3.3 slow path: other VMAs of this process still live under
        # this table, so take a private copy before clearing entries.
        leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)

    _zap_dedicated_entries(kernel, mm, leaf, (lo - slot_start) // PAGE_SIZE,
                           (hi - slot_start) // PAGE_SIZE)
    if leaf.is_empty():
        pmd_table.clear(pmd_index)
        put_pte_table(kernel, mm, leaf)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range and exit_mmap shoot the range down after the walk")
def _zap_huge(kernel, pmd_table, pmd_index):
    """Clear a huge PMD entry and drop its reference on the 2 MiB page."""
    head = int(entry_pfn(pmd_table.entries[pmd_index]))
    pmd_table.clear(pmd_index)
    kernel.cost.charge_zap_entries(1)
    if kernel.pages.ref_dec(head) == 0:
        kernel.free_huge_frame(head)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range and exit_mmap shoot the range down after the walk")
def _zap_dedicated_entries(kernel, mm, leaf, lo_index, hi_index):
    """Clear entries ``[lo_index, hi_index)`` of a dedicated leaf table."""
    # sancheck: ignore[clock-charge] -- with no entry present this releases only swap slots and the store below clears only swap/absent entries, below the per-present-entry zap model's resolution
    n_present = drop_references(kernel, leaf.entries[lo_index:hi_index])
    if n_present:
        kernel.cost.charge_zap_entries(n_present)
    leaf.entries[lo_index:hi_index] = ENTRY_NONE
    kernel.note_table_write(leaf, hi_index - lo_index)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("exit_mmap shoots the dying mm down once after the walk")
def _exit_release_pmd_table(kernel, mm, pmd_table):
    """Release every mapping a PMD table reaches (the exit path).

    The leaf tables are resolved once.  Shared ones are dropped in one
    batch; dedicated ones are zapped and put, then the huge entries
    cleared, each in address order.
    """
    entries = pmd_table.entries
    present = present_mask(entries)
    if not present.any():
        return
    huge = (entries & BIT_PS) != np.uint64(0)
    leaf_positions = np.nonzero(present & ~huge)[0]
    if len(leaf_positions):
        leaves = kernel.resolve_tables(
            entry_pfn(entries[leaf_positions]).tolist())
        shared = [len(leaf.sharers) > 1 for leaf in leaves]
        if any(shared):
            n_dropped = drop_shared_tables(
                mm, pmd_table, leaf_positions[np.array(shared)],
                [leaf for leaf, s in zip(leaves, shared) if s])
            kernel.cost.charge_table_put(n_dropped)
        for position, leaf, s in zip(leaf_positions.tolist(), leaves, shared):
            if not s:
                _zap_dedicated_entries(kernel, mm, leaf, 0, PTRS_PER_TABLE)
                pmd_table.clear(position)
                put_pte_table(kernel, mm, leaf)
    for position in np.nonzero(present & huge)[0].tolist():
        _zap_huge(kernel, pmd_table, position)


@acquires("mmap_lock", "ptl")
def exit_mmap(kernel, mm):
    """Tear down an entire address space on process exit."""
    if mm.dead:
        raise KernelBug("exit_mmap on a dead mm")
    from .fastpath import (
        count_refusal,
        fast_exit_release_pmd_table,
        fast_path_ok,
    )
    use_fast = fast_path_ok(kernel)
    for pmd_table, _base in mm.pmd_tables():
        if not use_fast:
            count_refusal(kernel, "exit")
        elif fast_exit_release_pmd_table(kernel, mm, pmd_table):
            continue
        _exit_release_pmd_table(kernel, mm, pmd_table)
    for vma in list(mm.vmas):
        mm.remove_vma(vma)
    # All leaf tables are gone; release the upper levels.
    uppers = mm.upper_tables()
    for table in uppers:
        if table.level == LEVEL_PMD and not table.is_empty():
            raise KernelBug("leaf table leaked past exit_mmap")
        mm.free_table_frame(table)
    kernel.cost.charge_table_free(len(uppers))
    mm.free_table_frame(mm.pgd)
    kernel.cost.charge_table_free()
    mm.dead = True
    kernel.tlbs.shootdown_mm(mm, charge=False)
