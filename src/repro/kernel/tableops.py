"""Shared PTE-table operations: the heart of On-demand-fork.

This module implements the paper's §3.4–§3.6 mechanism:

* **Ownership rule.**  Every :class:`PageTable` *object* owns one reference
  on each data page its present entries map, regardless of how many
  processes share the table (sharing is tracked separately, by the
  table's own sharer list, ``PageTable.sharers``, whose length is the
  §3.5 refcount).  The rule has three parts: one page reference per
  present entry, one rmap mapping per present anonymous entry (with
  swap configured), and one swap-slot reference per swap entry.
  :func:`copy_references` takes them for a new table object and
  :func:`drop_references` releases them: the per-event table copies, and
  every zap, bulk COW, THP collapse and snapshot restore, go through the
  pair (the analytic batches of :mod:`.fastpath` apply the
  same rule to many tables at once).
  Classic fork creates new table objects, so it takes references; odfork
  shares the object, so it does not — that skipped work is precisely the
  savings the paper measures.

* **Table COW** (:func:`copy_shared_pte_table`).  On the first write fault
  in a 2 MiB region mapped by a shared table, the faulting process gets a
  dedicated copy: entries are duplicated (accessed bits preserved, §3.2),
  write permission is dropped for private-COW ranges in *both* the copy and
  the original (see DESIGN.md §3 for why the original must be downgraded
  too), the copy takes its references, and the faulting process leaves
  the shared table's sharer list.

* **Table put** (:func:`put_pte_table`).  Drops one sharer; the last
  one frees the table frame.  Every caller empties a table before its
  last put (the zap, exit, THP collapse and mremap), so the destructor
  has no references left to release and a populated dying table is a
  bug — with the ownership rule, the §3.6 rule that a page is freeable
  only when no table that could reach it survives.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import PAGE_SIZE, PG_FILE, PTRS_PER_TABLE, has_duplicates
from ..paging.entries import (
    BIT_RW,
    ENTRY_NONE,
    entry_pfn,
    make_entry,
    present_pfns,
)
from ..paging.table import LEVEL_PTE, PMD_REGION_SIZE
from ..sancheck.annotations import charge_deferred, must_hold, tlb_deferred
from ..trace import points
from .rmap import rmap_add_bulk, rmap_remove_bulk


def drop_table_sharer(table, mm):
    """Remove ``mm`` from a leaf table's sharer list (one fewer §3.5
    reference); an mm that is not a sharer, or a freed table, is a bug."""
    try:
        table.sharers.remove(mm)
    except (AttributeError, ValueError):
        raise KernelBug(
            f"mm {mm.owner_pid} is not a registered sharer of table {table.pfn}"
        ) from None


@must_hold("mmap_lock", "ptl")
@tlb_deferred("exit_mmap shoots the dying mm down once after the walk")
@charge_deferred("callers charge one table put per dropped table")
def drop_shared_tables(mm, pmd_table, positions, tables):
    """Drop ``mm``'s reference on the shared leaf ``tables``, mapped at
    ``positions`` of ``pmd_table``, in one step (§3.3: the entries stay
    for the other sharers); returns how many it dropped."""
    for table in tables:
        drop_table_sharer(table, mm)
    pmd_table.entries[positions] = ENTRY_NONE
    return len(positions)


#: ``entry & DROP_RW`` write-protects an entry.
DROP_RW = np.uint64(~BIT_RW)

_ALL_COW = np.ones(PTRS_PER_TABLE, dtype=bool)
_NO_COW = np.zeros(PTRS_PER_TABLE, dtype=bool)


def private_cow_mask(mm, slot_start):
    """Boolean[512]: entries whose range falls in a private-COW VMA.

    Used when write permission must be dropped at PTE granularity: COW
    (private writable) ranges lose RW; shared mappings and read-only
    ranges keep their bits.

    Fast path: when a single VMA covers the whole slot (the common case in
    large mappings), returns a shared read-only constant mask — callers
    must not mutate the result.
    """
    slot_end = slot_start + PMD_REGION_SIZE
    vma = mm.vmas.find(slot_start)
    if vma is not None and vma.end >= slot_end:
        return _ALL_COW if vma.needs_cow else _NO_COW
    mask = np.zeros(PTRS_PER_TABLE, dtype=bool)
    for lo, hi, vma in mm.vma_ranges_in_slot(slot_start, slot_end):
        if vma.needs_cow:
            first = (lo - slot_start) // PAGE_SIZE
            last = (hi - slot_start) // PAGE_SIZE
            mask[first:last] = True
    return mask


@tlb_deferred("the fork copies shoot the parent down once per fork")
@charge_deferred("the fork copies charge copy_one_pte per entry")
def write_protect(entries, cow_mask, all_cow):
    """Drop RW from the ``cow_mask`` entries of ``entries``, in place.

    The common whole-table case (``all_cow``) is one ``&=``; a
    boolean-mask update would read, mask, and write back every entry.
    """
    if all_cow:
        entries &= DROP_RW
    else:
        entries[cow_mask] &= DROP_RW


@charge_deferred("callers charge charge_zap_entries for the batch")
def free_anon_frames(kernel, pfns):
    """Free anonymous frames whose refcount reached zero."""
    if len(pfns) == 0:
        return
    flags = kernel.pages.flags[pfns]
    if np.any(flags & PG_FILE):
        raise KernelBug("file page refcount dropped to zero outside the cache")
    kernel.pages.on_free_bulk(pfns)
    kernel.phys.zero_bulk(pfns)
    kernel.allocator.free_bulk(pfns)


def copy_references(kernel, entries):
    """Take the references a new table object holding ``entries`` owns.

    One page reference and one rmap mapping per present entry (at the
    page's existing home: a copy keeps its source's entry positions)
    and one slot reference per swap entry.  Returns the present
    entries' pfns.
    """
    _, pfns = present_pfns(entries)
    if len(pfns):
        # One uniqueness proof serves the refcount and the mapcount update.
        unique = not has_duplicates(pfns)
        kernel.pages.ref_inc_bulk(pfns, _unique=unique)
        rmap_add_bulk(kernel, pfns, _unique=unique)
    kernel.swap_dup_entries(entries)
    return pfns


@charge_deferred("callers price the release: charge_zap_entries per present "
                 "entry, or their own COW, collapse or restore cost")
def drop_references(kernel, entries):
    """Release what :func:`copy_references` takes for ``entries``.

    Drops the present entries' mappings and page references, frees the
    frames that reach zero, and drops the swap entries' slot
    references.  Returns the number of present entries.
    """
    _, pfns = present_pfns(entries)
    if len(pfns):
        unique = not has_duplicates(pfns)
        # Mappings first: eligibility reads page flags, which the free
        # resets.
        rmap_remove_bulk(kernel, pfns, _unique=unique)
        zeroed = kernel.pages.ref_dec_bulk(pfns, _unique=unique)
        free_anon_frames(kernel, zeroed)
    kernel.swap_put_entries(entries)
    return len(pfns)


@must_hold("mmap_lock")
def put_pte_table(kernel, mm, table):
    """Drop one sharer's reference on a leaf table (§3.5 lifecycle).

    ``mm`` is the process releasing its reference.  The last sharer
    frees the table's frame; the caller has emptied the table by then.
    Returns the number of sharers left.
    """
    kernel.cost.charge_table_put()
    drop_table_sharer(table, mm)
    remaining = len(table.sharers)
    if remaining == 0:
        if not table.is_empty():
            raise KernelBug(f"freeing leaf table {table.pfn} with live "
                            f"entries")
        kernel.cost.charge_table_free()
        mm.free_table_frame(table)
    return remaining


@must_hold("mmap_lock", "ptl")
def copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start):
    """COW a shared PTE table for ``mm`` (paper §3.4).

    Allocates a dedicated table, copies all 512 entries (preserving
    accessed bits), write-protects private-COW entries in both copies,
    takes the copy's references (:func:`copy_references`), points the PMD
    entry at the copy with write permission restored, and releases one
    reference on the shared table.  Returns the new dedicated table.
    """
    old_table = mm.resolve(pmd_table.child_pfn(pmd_index))
    if len(old_table.sharers) <= 1:
        raise KernelBug("copy_shared_pte_table on a dedicated table")

    kernel.failpoints.hit("tableops.table_cow")
    new_table = mm.alloc_table(LEVEL_PTE, copy_of=old_table)
    new_table.copy_entries_from(old_table)
    # Mitosis: populating the fresh (auto-replicated) copy and editing
    # the original are both full-table coherence events.  The copy reads
    # the shared table's frame, as classic fork's does.
    kernel.note_table_write(new_table, PTRS_PER_TABLE)
    kernel.charge_numa_copy(old_table.pfn)

    cow_mask = private_cow_mask(mm, slot_start)
    all_cow = cow_mask is _ALL_COW
    if all_cow or cow_mask.any():
        # Both copies: the new table so this process's writes still COW at
        # page granularity, and the original so a later sole owner cannot
        # silently regain write access to still-shared pages.
        write_protect(new_table.entries, cow_mask, all_cow)
        write_protect(old_table.entries, cow_mask, all_cow)
        if kernel.mitosis is not None:
            kernel.note_table_write(
                old_table,
                PTRS_PER_TABLE if all_cow else int(np.count_nonzero(cow_mask)))

    pfns = copy_references(kernel, new_table.entries)
    drop_table_sharer(old_table, mm)

    kernel.cost.charge_table_cow_copy(len(pfns))
    pmd_table.set(pmd_index, make_entry(new_table.pfn, writable=True, user=True))
    kernel.note_table_write(pmd_table)

    # One fewer sharer of the old table.  This mm still maps the same
    # pages, now through its own copy.
    survivors = old_table.sharers
    remaining = len(survivors)
    if remaining == 1 and kernel.mitosis is not None:
        # Under share-one the last sharer left holding the table becomes
        # entitled to its replicas (the paper-crossing adoption rule).
        kernel.mitosis.adopt_owner(old_table.pfn, survivors[0])
    kernel.stats.table_cow_copies += 1
    if points.enabled:
        points.tracepoint("table.cow_copy", slot_start=slot_start,
                          n_present=len(pfns), remaining_sharers=remaining)
    # Local flush is sufficient: the copy maps the same pfns, and any
    # other CPU's cached entries for this range are read-only (the PMD
    # write-protect shootdown at share time already purged writable ones).
    kernel.tlbs.local_flush_range(mm, slot_start, slot_start + PMD_REGION_SIZE)
    return new_table


@must_hold("mmap_lock", "ptl")
def unshare_sole_owner(kernel, mm, pmd_table, pmd_index):
    """§3.4: the last sharer flips its PMD write bit back on.

    When every other sharer has copied the table away, the remaining
    process's writes still fault (PMD RW=0).  The handler recognises the
    refcount of one and re-enables the PMD write bit; leaf entries keep
    whatever protection the COW protocol left them, so data-page COW
    still triggers where needed.
    """
    entry = pmd_table.entries[pmd_index]
    pmd_table.entries[pmd_index] = entry | BIT_RW
    kernel.note_table_write(pmd_table)
    if kernel.mitosis is not None:
        kernel.mitosis.adopt_owner(int(entry_pfn(entry)), mm)
    kernel.cost.charge_pt_unshare_flip()
    kernel.stats.table_unshares += 1
    if points.enabled:
        points.tracepoint("table.unshare", table_pfn=int(entry_pfn(entry)))
