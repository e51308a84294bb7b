"""``mremap`` relocation: moving page-table entries between addresses.

Moving a mapping clears entries at the old location and installs them at
the new one.  With shared PTE tables this is another §3.3 COW-on-modify
case, on *both* sides:

* an old-range slot whose table is shared must be copied before its
  entries can be cleared (other sharers still need them);
* a new-range slot can land under a shared table too (the free gap may sit
  inside a 2 MiB slot partially covered by a neighbouring shared mapping),
  in which case installing entries also forces a copy first.

Entry moves transfer page ownership between table objects, so data-page
refcounts are untouched — exactly why mremap is cheap compared with
copying.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import PAGE_SIZE
from ..paging.entries import (
    ENTRY_NONE,
    entry_pfn,
    is_huge,
    is_present,
    make_entry,
    present_mask,
    swap_mask,
)
from ..paging.table import LEVEL_PTE, PMD_REGION_SIZE, level_base, table_index
from .rmap import rmap_move
from .tableops import copy_shared_pte_table, put_pte_table
from .thp import split_huge_entry
from ..sancheck.annotations import acquires, must_hold


@must_hold("mmap_lock", "ptl")
def _dedicated_leaf_for(kernel, mm, vaddr):
    """The dedicated PTE table covering ``vaddr``, creating/copying as needed."""
    kernel.failpoints.hit("mremap.target_leaf")
    pmd_table, pmd_index = mm.walk_to_pmd(vaddr, alloc=True)
    entry = pmd_table.entries[pmd_index]
    if not is_present(entry):
        leaf = mm.alloc_table(LEVEL_PTE)
        kernel.cost.charge_pte_table_alloc()
        pmd_table.set(pmd_index, make_entry(leaf.pfn, writable=True, user=True))
        return pmd_table, pmd_index, leaf
    if is_huge(entry):
        raise KernelBug("mremap target collided with a huge mapping")
    leaf = mm.resolve(int(entry_pfn(entry)))
    if len(leaf.sharers) > 1:
        leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index,
                                     level_base(vaddr, 2))
    return pmd_table, pmd_index, leaf


@must_hold("mmap_lock")
@acquires("ptl")
def move_mapping(kernel, mm, vma, new_size):
    """Relocate ``vma`` to a fresh area of ``new_size`` bytes; returns it."""
    old_start, old_end = vma.start, vma.end
    # A 2 MiB-aligned target keeps the destination slots disjoint from the
    # source slots even when the free gap is adjacent to the old mapping.
    new_start = mm.find_free_area(new_size, align=PMD_REGION_SIZE)
    new_vma = vma.clone(start=new_start, end=new_start + new_size)
    new_vma.file_offset = vma.file_offset
    # Install the new VMA first: table-COW decisions on both sides need the
    # final geometry.
    mm.add_vma(new_vma)

    # An OOM part-way through the walk (table COW on either side, or a
    # fresh target leaf) aborts the move with both VMAs installed and the
    # entries moved so far at their new addresses.  Every refcount stays
    # consistent — each entry moves atomically — so the caller sees a
    # failed syscall over a torn but audit-clean mapping, as with a
    # mid-copy fork abort.
    moved = 0
    for pmd_table, pmd_index, slot_start, entry in mm.present_slots(old_start,
                                                                    old_end):
        kernel.failpoints.hit("mremap.move_slot")
        if is_huge(entry):
            # A THP slot (sys_mremap refuses hugetlb): split it, then move
            # its 4 KiB entries like any others.
            leaf = split_huge_entry(kernel, mm, pmd_table, pmd_index,
                                    slot_start)
        else:
            leaf = mm.resolve(int(entry_pfn(entry)))
        if len(leaf.sharers) > 1:
            leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)
        lo_index = max(old_start - slot_start, 0) // PAGE_SIZE
        hi_index = min(old_end - slot_start, PMD_REGION_SIZE) // PAGE_SIZE
        sub = leaf.entries[lo_index:hi_index]
        mask = present_mask(sub)
        if kernel.swap is not None:
            # Swapped-out pages relocate too: the swap entry (and its slot
            # reference) moves between table objects like a present entry.
            mask |= swap_mask(sub)
        for index in (np.nonzero(mask)[0] + lo_index).tolist():
            old_vaddr = slot_start + index * PAGE_SIZE
            new_vaddr = new_start + (old_vaddr - old_start)
            _, _, target_leaf = _dedicated_leaf_for(kernel, mm, new_vaddr)
            target_index = table_index(new_vaddr, LEVEL_PTE)
            if target_leaf.entries[target_index] != ENTRY_NONE:
                raise KernelBug("mremap target entry already present")
            # Ownership transfer: the entry (and its page or swap-slot
            # reference) moves from the old table object to the new one.
            entry = leaf.entries[index]
            target_leaf.entries[target_index] = entry
            leaf.entries[index] = ENTRY_NONE
            if is_present(entry):
                rmap_move(kernel, int(entry_pfn(entry)), target_leaf,
                          target_index)
            moved += 1
        if leaf.is_empty():
            pmd_table.clear(pmd_index)
            put_pte_table(kernel, mm, leaf)

    kernel.cost.charge_zap_entries(moved)   # clearing old entries
    kernel.cost.charge_copy_pte_entries(0)  # attribution anchor
    mm.remove_vma(vma)
    # The old range's translations are dead on every CPU running this mm.
    kernel.tlbs.shootdown_mm(mm, old_start, old_end)
    return new_start
