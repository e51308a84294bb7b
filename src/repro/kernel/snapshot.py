"""In-place snapshot/restore: the fork-less alternative (paper §6.1).

Xu et al. (CCS '17) designed a snapshot/restore primitive for fuzzing that
*reuses the calling process* instead of forking: snapshot write-protects
the address space and records its state; restore rolls modified pages back
and re-arms the protection.  The paper discusses it as related work — it
avoids fork's page-table copies but "it is not clear whether it can be
safely applied to broader types of workloads" (kernel state outside memory
is not covered, and there is no concurrent parent/child execution).

The implementation here rides the same machinery On-demand-fork uses:

* ``create`` walks the leaf level once, write-protects private-COW entries
  (so subsequent writes COW instead of destroying the saved state), stores
  a copy of every leaf table's entries, and takes one page reference per
  present entry — the snapshot owns the saved pages like a table object
  would (the §3.6 ownership rule).
* Writes after the snapshot fault and COW normally: the old page survives
  because the snapshot holds a reference.
* ``restore`` diffs each live table against its saved entries, releases
  the pages written since the snapshot, and reinstates the saved
  (write-protected) entries — re-taking table-ownership references so the
  snapshot can be restored again and again.
* ``discard`` drops the snapshot's references.

Restrictions (documented): snapshots cover a single process; ``create``
unshares proactively, and ``restore`` copies any table an odfork shared
*after* the snapshot before editing it (the same COW-on-modify rule every
other table-modifying operation follows).  Operations that delete or move
the snapshotted leaf tables themselves — munmap/mremap/MADV_DONTNEED over
a whole slot — are not supported while a snapshot is live (khugepaged
collapse is refused for snapshotted address spaces for the same reason);
the fuzzing-reset workload this primitive exists for never does that.
Even then restore keeps the rmap sound: a slot's table rebuilt since
the save joins the saved table's rmap family once its entries are gone.
"""

from __future__ import annotations
from ..sancheck.annotations import acquires, releases_refs

import numpy as np

from ..errors import InvalidArgumentError, KernelBug
from ..mem.page import has_duplicates
from ..paging.entries import BIT_RW, entry_pfn, is_huge, is_present, present_mask
from ..paging.table import PMD_REGION_SIZE
from .rmap import rmap_add_bulk
from .tableops import (
    copy_shared_pte_table,
    drop_references,
    free_anon_frames,
    private_cow_mask,
)

#: Cost per saved/diffed leaf table: one pass over 512 entries, comparable
#: to the odfork share cost plus the protect write.
SNAPSHOT_PER_TABLE_NS = 380
RESTORE_PER_TABLE_NS = 520
#: Per-restored-entry work: refcount transfer + entry write + free batching.
RESTORE_PER_ENTRY_NS = 24


class Snapshot:
    """Saved leaf-level state of one address space."""

    def __init__(self, kernel, mm):
        self.kernel = kernel
        self.mm = mm
        # (pmd_table, pmd_index, slot_start, rmap family of the saved
        # table) -> saved entries copy
        self.saved = {}
        self.live = True
        self.restores = 0

    # ---- creation --------------------------------------------------------

    @classmethod
    @acquires("mmap_lock", "ptl")
    def create(cls, kernel, task):
        """Snapshot ``task``'s address space; returns the Snapshot."""
        task.require_alive()
        mm = task.mm
        if mm.users != 1:
            raise InvalidArgumentError(
                "snapshot requires an unshared address space"
            )
        kernel.cost.charge_syscall()
        # Refuse before write-protecting anything: a refusal must leave
        # every PTE (and so every cached translation) as it was.
        if any(is_huge(entry) for *_, entry in mm.present_slots()):
            raise InvalidArgumentError(
                "snapshot over huge mappings is not supported"
            )
        snapshot = cls(kernel, mm)
        drop_rw = np.uint64(~BIT_RW)
        try:
            for pmd_table, pmd_index, slot_start, entry in mm.present_slots():
                leaf = mm.resolve(int(entry_pfn(entry)))
                if len(leaf.sharers) > 1:
                    # Unshare proactively: restore must own its tables.
                    leaf = copy_shared_pte_table(kernel, mm, pmd_table,
                                                 pmd_index, slot_start)
                cow = private_cow_mask(mm, slot_start)
                protect = cow & present_mask(leaf.entries)
                if protect.any():
                    leaf.entries[protect] &= drop_rw
                saved = leaf.entries.copy()
                snapshot.saved[(pmd_table, pmd_index, slot_start,
                                leaf.family)] = saved
                pfns = entry_pfn(saved[present_mask(saved)]).astype(np.int64)
                if len(pfns):
                    kernel.pages.ref_inc_bulk(pfns)  # the snapshot's references
                # Saved swap entries pin their slots the same way.
                kernel.swap_dup_entries(saved)
                kernel.cost.charge("snapshot_save_table", SNAPSHOT_PER_TABLE_NS)
        except BaseException:
            # A mid-walk failure (an unsharing copy hitting OOM) must not
            # leak the page and slot references already taken for the
            # partial snapshot, nor leave writable translations cached
            # for the entries it already write-protected.
            snapshot.discard()
            kernel.tlbs.shootdown_mm(mm)
            raise
        # Snapshot save write-protects COW-able entries: stale writable
        # translations must go from every CPU running this mm.
        kernel.tlbs.shootdown_mm(mm)
        kernel.stats.snapshots_created += 1
        kernel.live_snapshots.append(snapshot)
        return snapshot

    # ---- helpers ------------------------------------------------------------

    def _require_live(self):
        if not self.live:
            raise InvalidArgumentError("snapshot was discarded")
        if self.mm.dead:
            raise InvalidArgumentError("snapshotted process has exited")

    def _current_leaf(self, pmd_table, pmd_index):
        entry = pmd_table.entries[pmd_index]
        if not is_present(entry) or is_huge(entry):
            raise KernelBug("snapshotted slot disappeared (unsupported op?)")
        return self.mm.resolve(int(entry_pfn(entry)))

    # ---- restore ---------------------------------------------------------------

    @acquires("mmap_lock", "ptl")
    def restore(self):
        """Roll every page written since the snapshot back to saved state."""
        self._require_live()
        kernel = self.kernel
        restored_entries = 0
        for (pmd_table, pmd_index, slot_start, family), saved in \
                self.saved.items():
            leaf = self._current_leaf(pmd_table, pmd_index)
            if len(leaf.sharers) > 1:
                # An odfork after the snapshot shared this table; editing
                # it in place would rewrite the other sharers' view, so
                # restore follows the same rule as any table-modifying
                # operation and takes a dedicated copy first.
                leaf = copy_shared_pte_table(kernel, self.mm, pmd_table,
                                             pmd_index, slot_start)
            kernel.cost.charge("snapshot_diff_table", RESTORE_PER_TABLE_NS)
            changed = leaf.entries != saved
            if not changed.any():
                continue
            positions = np.nonzero(changed)[0]
            saved_slice = saved[positions]
            # Re-take the table's swap-slot references before dropping the
            # current ones, so a slot appearing on both sides never sees a
            # transient zero refcount (which would free it).
            kernel.swap_dup_entries(saved_slice)
            drop_references(kernel, leaf.entries[positions])
            if leaf.family != family:
                # A table rebuilt since the save: its anonymous pages were
                # all new and are dropped, so it can take the saved homes.
                kernel.rmap.rejoin(leaf, family)
            saved_present = present_mask(saved_slice)
            keep_pfns = entry_pfn(saved_slice[saved_present]).astype(np.int64)
            if len(keep_pfns):
                # Re-take the table-ownership references and mappings for
                # the pages the table is about to map again (the snapshot
                # keeps its own), under one uniqueness proof.
                unique = not has_duplicates(keep_pfns)
                kernel.pages.ref_inc_bulk(keep_pfns, _unique=unique)
                rmap_add_bulk(kernel, keep_pfns, leaf,
                              positions[saved_present], _unique=unique)
            leaf.entries[positions] = saved_slice
            restored_entries += len(positions)
            kernel.cost.charge("snapshot_restore_entries",
                               RESTORE_PER_ENTRY_NS * len(positions))
            kernel.tlbs.local_flush_range(self.mm, slot_start,
                                          slot_start + PMD_REGION_SIZE)
        self.restores += 1
        kernel.stats.snapshot_restores += 1
        kernel.cost.charge_tlb_flush()
        return restored_entries

    # ---- discard -----------------------------------------------------------------

    @releases_refs("page", "swap")
    def discard(self):
        """Release the snapshot's page references."""
        if not self.live:
            return
        kernel = self.kernel
        for saved in self.saved.values():
            pfns = entry_pfn(saved[present_mask(saved)]).astype(np.int64)
            if len(pfns):
                zeroed = kernel.pages.ref_dec_bulk(pfns)
                # sancheck: ignore[clock-charge] -- snapshot teardown is priced by the discard syscall / fork-unwind blanket costs
                free_anon_frames(kernel, zeroed)
            kernel.swap_put_entries(saved)
        self.saved.clear()
        self.live = False
        if self in kernel.live_snapshots:
            kernel.live_snapshots.remove(self)
