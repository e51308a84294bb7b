"""Transparent Huge Pages: the khugepaged model (paper §2.3).

The paper's huge-page discussion is central to its motivation: THP makes
fork faster (512x fewer leaf entries) but hurts latency — khugepaged
scans burn CPU and cause pauses, and 2 MiB COW faults take ~200 us.  This
module models the mechanism so those trade-offs are measurable:

* VMAs opt in via ``madvise(MADV_HUGEPAGE)`` (the distribution-default
  policy the paper mentions) or globally via ``policy="always"``;
* :class:`Khugepaged` scans eligible address spaces and *promotes* fully
  populated, exclusively owned, 2 MiB-aligned regions: data is migrated
  into a fresh compound page, the 512 leaf entries and their table are
  freed, and the PMD entry maps the huge page directly;
* promotion is copy-based (as in Linux's collapse path), so its cost —
  charged to the virtual clock — is exactly the kind of background pause
  the paper's §2.3 complains about;
* a promoted region that is partially unmapped or write-protected is
  *split* back into 4 KiB pages (copy-based; see ``split_huge_entry``).

Shared PTE tables are never promoted: collapse would modify entries other
processes rely on — one more way THP and on-demand-fork make an awkward
pair (the paper evaluates them as alternatives, not companions).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, KernelBug, OutOfMemoryError
from ..mem.page import (
    HUGE_PAGE_ORDER,
    HUGE_PAGE_SIZE,
    PG_ANON,
    PG_FILE,
    PTRS_PER_TABLE,
)
from ..paging.entries import (
    BIT_ACCESSED,
    BIT_DIRTY,
    entry_pfn,
    is_huge,
    is_present,
    is_writable,
    make_entry,
    present_mask,
)
from ..paging.table import LEVEL_PTE, PMD_REGION_SIZE
from .rmap import rmap_add_bulk
from .tableops import drop_references, free_anon_frames, put_pte_table
from ..sancheck.annotations import acquires, must_hold

#: Cost of scanning one candidate region (read 512 entries + struct pages).
SCAN_COST_PER_REGION_NS = 2_500
#: Fixed promotion overhead beyond the 2 MiB data migration.
COLLAPSE_FIXED_NS = 12_000

POLICY_NEVER = "never"
POLICY_MADVISE = "madvise"
POLICY_ALWAYS = "always"
POLICIES = (POLICY_NEVER, POLICY_MADVISE, POLICY_ALWAYS)


class Khugepaged:
    """The background promotion daemon, driven explicitly by callers."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.policy = POLICY_MADVISE

    def set_policy(self, policy):
        """Switch the THP policy; an unknown one is refused and the
        current policy stays."""
        if policy not in POLICIES:
            raise InvalidArgumentError(f"unknown THP policy {policy!r}")
        self.policy = policy

    def _vma_eligible(self, vma):
        if self.policy == POLICY_NEVER:
            return False
        if not (vma.is_private and vma.is_anonymous and not vma.is_hugetlb):
            return False
        if self.policy == POLICY_ALWAYS:
            return not vma.thp_disabled
        return vma.thp_enabled

    def scan_mm(self, mm, max_promotions=None):
        """One khugepaged pass over an address space; returns promotions."""
        promoted = 0
        for vma in list(mm.vmas):
            if not self._vma_eligible(vma):
                continue
            start = (vma.start + PMD_REGION_SIZE - 1) & ~(PMD_REGION_SIZE - 1)
            slot = start
            while slot + PMD_REGION_SIZE <= vma.end:
                if max_promotions is not None and promoted >= max_promotions:
                    return promoted
                self.kernel.cost.charge("khugepaged_scan",
                                        SCAN_COST_PER_REGION_NS)
                if self._try_collapse(mm, vma, slot):
                    promoted += 1
                slot += PMD_REGION_SIZE
        return promoted

    @acquires("mmap_lock", "ptl")
    def _try_collapse(self, mm, vma, slot_start):
        """Promote one 2 MiB region if every precondition holds."""
        kernel = self.kernel
        if any(s.live and s.mm is mm for s in kernel.live_snapshots):
            # A live snapshot indexes this mm's leaf tables by identity;
            # collapsing one out from under it would break restore.
            return False
        walked = mm.walk_to_pmd(slot_start, alloc=False)
        if walked is None:
            return False
        pmd_table, pmd_index = walked
        entry = pmd_table.entries[pmd_index]
        if not is_present(entry) or is_huge(entry):
            return False
        leaf = mm.resolve(int(entry_pfn(entry)))
        if len(leaf.sharers) != 1:
            return False  # shared with another process: never collapse
        entries = leaf.entries
        present = present_mask(entries)
        if not present.all():
            return False  # region not fully populated
        pfns = entry_pfn(entries).astype(np.int64)
        # Exclusivity is what matters: refcount-1 pages may still carry
        # RO entries left behind by an exited COW peer; collapse restores
        # the VMA's permission, exactly as a reuse fault would.
        if np.any(kernel.pages.refcount[pfns] != 1):
            return False  # pages shared (e.g. COW peers): skip
        if np.any(kernel.pages.flags[pfns] & np.uint16(PG_FILE)):
            return False  # anon-only collapse

        # Migrate: allocate the compound page, copy all 512 subpages.
        # A failed huge allocation is not an error for a background
        # promotion — the region simply stays 4 KiB-mapped, as in Linux.
        try:
            kernel.failpoints.hit("thp.collapse")
            # sancheck: ignore[clock-charge] -- a backed-out collapse returns the unused frame; khugepaged's failed scans are deliberately unpriced
            head = kernel.alloc_huge_frame(mm)
        except OutOfMemoryError:
            return False
        if kernel.swap is not None:
            # The huge allocation may have run reclaim, which can swap out
            # candidate pages behind our back; re-verify before committing.
            present = present_mask(entries)
            if (not present.all()
                    or np.any(kernel.pages.refcount[
                        entry_pfn(entries).astype(np.int64)] != 1)):
                kernel.allocator.free(head, HUGE_PAGE_ORDER)
                return False
            pfns = entry_pfn(entries).astype(np.int64)
        kernel.pages.on_alloc_compound(head, PG_ANON)
        kernel.phys.copy_frames_bulk(
            pfns, np.arange(head, head + PTRS_PER_TABLE, dtype=np.int64))
        kernel.cost.charge("khugepaged_collapse", COLLAPSE_FIXED_NS)
        kernel.cost.charge_bulk_copy(HUGE_PAGE_SIZE)

        dirty = bool((entries & BIT_DIRTY).any())
        accessed = bool((entries & BIT_ACCESSED).any())
        # Free the old frames (each held by this table only) and the table.
        drop_references(kernel, entries)
        leaf.entries[:] = 0
        pmd_table.clear(pmd_index)
        put_pte_table(kernel, mm, leaf)

        pmd_table.set(pmd_index, make_entry(
            head, writable=vma.writable, user=True, huge=True,
            dirty=dirty, accessed=accessed,
        ))
        # The collapse retargets 512 translations at once; every CPU
        # caching this mm must drop them (IPI round under SMP).
        kernel.tlbs.shootdown_mm(mm, slot_start,
                                 slot_start + PMD_REGION_SIZE)
        kernel.stats.thp_collapses += 1
        return True


@must_hold("mmap_lock", "ptl")
def split_huge_entry(kernel, mm, pmd_table, pmd_index, slot_start):
    """Split a THP-promoted entry back into 512 4 KiB pages.

    Copy-based: Linux remaps compound subpages in place, but the model's
    compound frames belong to one buddy block, so the split migrates data
    into fresh order-0 frames.  Costs are charged accordingly (a split is
    expensive — part of the paper's case against THP for latency).
    """
    entry = pmd_table.entries[pmd_index]
    if not is_huge(entry):
        raise KernelBug("splitting a non-huge entry")
    head = int(entry_pfn(entry))
    writable = bool(is_writable(entry))

    kernel.failpoints.hit("thp.split")
    new_pfns = kernel.alloc_data_frames_bulk(mm, PTRS_PER_TABLE)
    kernel.pages.on_alloc_bulk(new_pfns, PG_ANON)
    kernel.phys.copy_frames_bulk(
        np.arange(head, head + PTRS_PER_TABLE, dtype=np.int64), new_pfns)
    kernel.cost.charge_bulk_copy(HUGE_PAGE_SIZE)

    try:
        kernel.failpoints.hit("thp.split_table")
        leaf = mm.alloc_table(LEVEL_PTE)
    except OutOfMemoryError:
        # The split's new frames are not yet mapped anywhere; without
        # this unwind a table-allocation failure would leak all 512.
        zeroed = kernel.pages.ref_dec_bulk(new_pfns)
        free_anon_frames(kernel, zeroed)
        raise
    kernel.cost.charge_pte_table_alloc()
    from .bulkops import _entries_for
    leaf.entries[:] = _entries_for(new_pfns, writable=writable, dirty=False)
    rmap_add_bulk(kernel, new_pfns, leaf, np.arange(PTRS_PER_TABLE))

    if kernel.pages.ref_dec(head) == 0:
        kernel.free_huge_frame(head)
    pmd_table.set(pmd_index, make_entry(leaf.pfn, writable=True, user=True))
    # The split swaps the backing frames; shoot the region down everywhere.
    kernel.tlbs.shootdown_mm(mm, slot_start, slot_start + PMD_REGION_SIZE,
                             charge=False)
    kernel.stats.thp_splits += 1
    return leaf
