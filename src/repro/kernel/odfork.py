"""On-demand-fork's address-space duplication (the paper's contribution).

Instead of replicating the leaf level, the child *shares* every last-level
PTE table with the parent (§3.1):

* the upper three levels are copied (they are a ~1/512 fraction of the
  tree, §2.2 — which is why sharing stops here);
* the child joins each shared leaf table's sharer list, whose length is
  the table's §3.5 reference counter;
* write permission is disabled **once per table** by clearing the RW bit in
  the PMD entries of both parent and child — the hierarchical-attribute
  override (§3.2) write-protects the whole 2 MiB region without touching a
  single leaf entry;
* no data-page refcount is touched: the skipped ``compound_head`` /
  ``page_ref_inc`` per-PTE loop is precisely the 65x-270x invocation-time
  win of Figure 7;
* no RSS is counted either: :meth:`~repro.kernel.mm.MMStruct.rss_counts`
  reads residency from the tables, so the child reports what its shared
  tables map.

The deferred work happens later, in the fault handler, one table at a
time (:func:`~repro.kernel.tableops.copy_shared_pte_table`).

The implementation is vectorised at PMD-table granularity (one numpy pass
per 1 GiB of address space), both for host-speed and for fidelity: the
real implementation's cost is likewise dominated by one refcount increment
and one entry write per shared table, not by per-page work.  The SMP fork
flow runs the same share body one 2 MiB slot at a time
(:func:`odf_share_walk`).

Huge (PMD-level) entries have no leaf table to share; by default they are
copied eagerly like classic fork, which matches the paper's implementation
("only supports 4 kB pages").  The generalisation sketched in §4 — sharing
2 MiB mappings with a single permission drop per entry — is available as
the ``share_huge`` ablation flag.
"""

from __future__ import annotations

import numpy as np

from ..mem.page import PTRS_PER_TABLE
from ..paging.entries import BIT_PS, BIT_RW, entry_pfn, present_mask
from .fork import (
    SLOT_DONE,
    ChildTreeBuilder,
    _slot_needs_cow,
    clone_vmas,
    slot_lock_key,
)
from ..paging.table import LEVEL_PMD, LEVEL_SPAN
from ..sancheck.annotations import (
    acquires,
    charge_deferred,
    must_hold,
    tlb_deferred,
)
from ..trace import points

#: Deliberate-bug switch for the differential oracle's self-test: when
#: True, odfork skips writing the write-protected entries back into the
#: *parent's* PMD table, so parent writes bypass COW and leak into the
#: child.  Exists so ``tests/test_verify_oracle.py`` can prove the oracle
#: catches (and the shrinker minimizes) a real semantic divergence.
#: Never enable outside that test.
FAULT_INJECT_SKIP_PARENT_WP = False


@must_hold("mmap_lock")
def _apply_replica_share_policy(kernel, child_mm, leaf_pfns):
    """odfork x Mitosis: decide what sharing does to a table's replicas.

    The knob is ``NumaTopology.odfork_replica_policy``:

    * ``collapse`` frees the replicas on the spot (reason="share") —
      the table reverts to one primary until table-COW re-replicates;
    * ``share-all`` leaves them in place and entitles *every* sharer,
      so the child's shootdowns fan out to replica nodes too;
    * ``share-one`` (default) leaves them owned by the parent — nothing
      to do here; adoption happens at unshare/table-COW time.
    """
    mitosis = kernel.mitosis
    policy = mitosis.topology.odfork_replica_policy
    for leaf_pfn in leaf_pfns:
        if leaf_pfn not in mitosis.replicas:
            continue
        if policy == "collapse":
            mitosis.collapse_table(leaf_pfn, reason="share")
        elif policy == "share-all":
            child_mm.replicated = True


@must_hold("mmap_lock", "ptl")
@tlb_deferred("the PMD write-protect is batched; finish_odf_copy shoots the parent down once")
@charge_deferred("callers charge the shared tables: copy_mm_odf once per fork, odf_share_walk once per slot")
def share_pmd_entries(kernel, parent_mm, child_mm, builder, parent_pmd,
                      table_base, present, share_huge=False):
    """Share (or, for huge entries, eagerly copy) the ``present`` entries
    of one parent PMD table; returns how many leaf tables it shared.

    §3.5: the child joins each shared table's sharer list, and each
    table gets one write-protected PMD entry on each side.  ``present`` is a boolean
    mask over the table's 512 entries, all of them present: the whole
    table for :func:`copy_mm_odf`, one slot for :func:`odf_share_walk`.
    """
    kernel.failpoints.hit("odfork.share_table")
    cost = kernel.cost
    drop_rw = np.uint64(~BIT_RW)
    entries = parent_pmd.entries
    child_pmd = builder.pmd_table_for(table_base)
    huge = present & ((entries & BIT_PS) != np.uint64(0))
    leaf_positions = present & ~huge
    count = 0

    if leaf_positions.any():
        pfns = entry_pfn(entries[leaf_positions]).tolist()
        for table in kernel.resolve_tables(pfns):
            table.sharers.append(child_mm)
        if kernel.mitosis is not None:
            _apply_replica_share_policy(kernel, child_mm, pfns)
        protected = entries[leaf_positions] & drop_rw
        if not FAULT_INJECT_SKIP_PARENT_WP:
            entries[leaf_positions] = protected
        child_pmd.entries[leaf_positions] = protected
        count = int(np.count_nonzero(leaf_positions))
        # The PMD write-protect edits the parent's (replicated) PMD
        # table, and populates the child's fresh one.
        kernel.note_table_write(parent_pmd, count)
        kernel.note_table_write(child_pmd, count)
        if points.enabled:
            points.tracepoint("odfork.share_table", table_base=table_base,
                              n_shared=count,
                              n_huge=int(np.count_nonzero(huge)))

    for pmd_index in np.nonzero(huge)[0].tolist():
        entry = entries[pmd_index]
        head = int(entry_pfn(entry))
        kernel.pages.ref_inc(head)
        slot_start = table_base + pmd_index * LEVEL_SPAN[LEVEL_PMD]
        if _slot_needs_cow(parent_mm, slot_start) or share_huge:
            entry &= drop_rw
            entries[pmd_index] = entry
        child_pmd.entries[pmd_index] = entry
        if share_huge:
            # §4 generalisation: one permission-drop per 2 MiB entry,
            # charged like a table share instead of the eager copy.
            cost.charge_share_tables(1)
        else:
            cost.charge_copy_huge_entries(1)
    return count


@must_hold("mmap_lock")
@acquires("ptl")
def copy_mm_odf(kernel, parent_mm, child_mm, share_huge=False):
    """Share ``parent_mm``'s leaf tables into ``child_mm`` (§3.1, §3.5)."""
    builder = begin_odf_copy(kernel, parent_mm, child_mm)
    shared_tables = 0
    for parent_pmd, table_base in parent_mm.pmd_tables():
        present = present_mask(parent_pmd.entries)
        if present.any():
            shared_tables += share_pmd_entries(
                kernel, parent_mm, child_mm, builder, parent_pmd, table_base,
                present, share_huge)
    kernel.cost.charge_share_tables(shared_tables)
    finish_odf_copy(kernel, parent_mm, child_mm, builder, shared_tables)
    return shared_tables


@must_hold("mmap_lock", "ptl")
def odf_share_walk(kernel, parent_mm, child_mm):
    """:func:`copy_mm_odf` as a generator over the parent's slots.

    The same protocol as :func:`~repro.kernel.fork.classic_copy_walk`:
    each present slot's split-lock key before sharing it, ``SLOT_DONE``
    after.  The SMP fork flow drives it so the scheduler can interleave
    other vCPUs between 2 MiB slots.
    """
    builder = begin_odf_copy(kernel, parent_mm, child_mm)
    shared_tables = 0
    for pmd, pmd_index, slot_start, entry in parent_mm.present_slots():
        key = slot_lock_key(entry)
        yield key
        if key is not None:
            # KCSAN hook, here rather than in the share body: it is a
            # no-op outside SMP, and one call per shared table would add
            # over half to the host time of the syscall's sweep.
            kernel.san_access("pt", key)
        present = np.zeros(PTRS_PER_TABLE, dtype=bool)
        present[pmd_index] = True
        table_base = slot_start - pmd_index * LEVEL_SPAN[LEVEL_PMD]
        shared = share_pmd_entries(kernel, parent_mm, child_mm, builder, pmd,
                                   table_base, present)
        kernel.cost.charge_share_tables(shared)
        shared_tables += shared
        yield SLOT_DONE
    finish_odf_copy(kernel, parent_mm, child_mm, builder, shared_tables)


@must_hold("mmap_lock")
def begin_odf_copy(kernel, parent_mm, child_mm):
    """Fixed-cost prologue of an on-demand-fork (task + VMAs + tree root)."""
    kernel.cost.charge_odfork_fixed(len(parent_mm.vmas))
    clone_vmas(parent_mm, child_mm)
    return ChildTreeBuilder(child_mm)


@must_hold("mmap_lock")
def finish_odf_copy(kernel, parent_mm, child_mm, builder, shared_tables):
    """Epilogue: upper-level copy, lineage, and the write-protect
    shootdown.

    The PMD write-protect just revoked write permission on the whole
    shared region, so stale *writable* translations must be invalidated
    in every TLB that may cache this address space — the caller's view
    and every remote vCPU running the same ``mm`` — or a cached-writable
    CPU would keep scribbling on frames the child now shares.
    """
    kernel.cost.charge_upper_copy(builder.upper_tables_created)
    parent_mm.odf_lineage = True
    child_mm.odf_lineage = True
    kernel.tlbs.shootdown_mm(parent_mm)
    kernel.stats.odforks += 1
    kernel.stats.tables_shared += shared_tables
    if points.enabled:
        points.tracepoint("odfork.share_done", shared_tables=shared_tables,
                          upper_tables=builder.upper_tables_created)
