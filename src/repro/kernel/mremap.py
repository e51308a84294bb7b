"""``mremap`` relocation: moving page-table entries between addresses.

Moving a mapping clears entries at the old location and installs them at
the new one.  With shared PTE tables this is another §3.3 COW-on-modify
case: an old-range slot whose table is shared must be copied before its
entries can be cleared (other sharers still need them).

The new range keeps the old range's offset within a 2 MiB slot and lies
in a gap of whole slots, the way Linux keeps a moved anonymous VMA's
``vm_pgoff`` so its pages' reverse mapping stays valid.  Each old slot's
entries land at the same indices of one fresh target leaf, built in the
source leaf's rmap family, so every moved PTE stays at its page's rmap
home; no other mapping touches a target slot, so none is shared or
already mapped.

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
from ..paging.table import LEVEL_PTE, PMD_REGION_SIZE
from .rmap import rmap_move
from .tableops import copy_shared_pte_table, put_pte_table
from .thp import split_huge_entry
from ..sancheck.annotations import acquires, must_hold


@must_hold("mmap_lock", "ptl")
def _target_leaf(kernel, mm, slot_start, source):
    """A fresh leaf table for the absent slot at ``slot_start``, in
    ``source``'s rmap family."""
    kernel.failpoints.hit("mremap.target_leaf")
    pmd_table, pmd_index = mm.walk_to_pmd(slot_start, alloc=True)
    if is_present(pmd_table.entries[pmd_index]):
        raise KernelBug("mremap target slot already mapped")
    leaf = mm.alloc_table(LEVEL_PTE, copy_of=source)
    kernel.cost.charge_pte_table_alloc()
    pmd_table.set(pmd_index, make_entry(leaf.pfn, writable=True, user=True))
    return leaf


@must_hold("mmap_lock")
@acquires("ptl")
def move_mapping(kernel, mm, vma, new_size):
    """Relocate ``vma`` to a fresh area of ``new_size`` bytes; returns it."""
    old_start, old_end = vma.start, vma.end
    offset = old_start % PMD_REGION_SIZE
    span = (offset + new_size + PMD_REGION_SIZE - 1) & ~(PMD_REGION_SIZE - 1)
    new_start = mm.find_free_area(span, align=PMD_REGION_SIZE) + offset
    shift = new_start - old_start          # a whole number of slots
    new_vma = vma.clone(start=new_start, end=new_start + new_size)
    new_vma.file_offset = vma.file_offset
    mm.add_vma(new_vma)

    # An OOM part-way through the walk (a THP split or table COW of an
    # old slot, or a fresh target leaf) aborts the move with both VMAs
    # installed and the slots moved so far at their new addresses.  Every
    # refcount stays consistent — each slot's entries move at once — so
    # the caller sees a failed syscall over a torn but audit-clean
    # mapping, as with a mid-copy fork abort.
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
        positions = np.flatnonzero(present_mask(sub) | swap_mask(sub))
        if len(positions):
            positions += lo_index
            target = _target_leaf(kernel, mm, slot_start + shift, leaf)
            # Ownership transfer: each present or swap entry, with its
            # page or swap-slot reference, moves to the same index.
            target.entries[positions] = leaf.entries[positions]
            leaf.entries[positions] = ENTRY_NONE
            rmap_move(kernel, target, positions)
            moved += len(positions)
        if leaf.is_empty():
            pmd_table.clear(pmd_index)
            put_pte_table(kernel, mm, leaf)

    kernel.cost.charge_zap_entries(moved)   # clearing old entries
    kernel.cost.charge_copy_pte_entries(0)  # attribution anchor
    mm.remove_vma(vma)
    # The old range's translations are dead on every CPU running this mm.
    kernel.tlbs.shootdown_mm(mm, old_start, old_end)
    return new_start
