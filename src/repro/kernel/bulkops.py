"""Vectorised range access: the simulator's fast path for big memory.

Python cannot take thirteen million individual page faults, so workloads
that sweep gigabytes (the Figure 1 benchmark, the Figure 8 access mixes,
application heaps) use :func:`access_range`, which performs *exactly* the
same state transitions as the byte-path fault handler — demand-zero fills,
data-page COW, shared-table COW, write-notify — but whole PTE tables at a
time with numpy, charging the same per-event costs the one-at-a-time path
would.  Equivalence between the two paths is pinned down by property tests
(``tests/test_bulk_vs_bytewise.py``).

A first touch of fresh anonymous 4 KiB memory goes one step further: each
run of absent PMD slots inside one PMD table is built in one batch
(:func:`fast_fill_run`, an analytic fast path of
:mod:`repro.kernel.fastpath`), with the per-slot code as its fallback.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfMemoryError, SegmentationFault
from ..mem.page import (
    HUGE_PAGE_ORDER,
    HUGE_PAGE_SIZE,
    PAGE_SIZE,
    PG_ANON,
    PG_DIRTY,
    PG_FILE,
    PTRS_PER_TABLE,
)
from ..paging.entries import (
    BIT_ACCESSED,
    BIT_DIRTY,
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_USER,
    PFN_SHIFT,
    entry_pfn,
    is_huge,
    is_present,
    is_writable,
    present_mask,
    swap_mask,
    writable_mask,
)
from ..paging.table import (
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    PMD_REGION_SIZE,
    TABLE_SPAN,
    level_base,
    page_align_down,
    page_align_up,
)
from ..timing.costs import FN_PTE_ALLOC
from .fastpath import (
    _fork_headroom_ok,
    count_bail,
    count_refusal,
    fast_path_ok,
)
from .fault import swap_in_entry
from .rmap import rmap_add_bulk
from ..sancheck.annotations import acquires, must_hold
from .tableops import (
    copy_shared_pte_table,
    drop_references,
    unshare_sole_owner,
)

_BASE_BITS = BIT_PRESENT | BIT_USER | BIT_ACCESSED

# charge_many id table for a fill run: per slot, the leaf table's
# pte_alloc_one, then the slot's demand-zero fill.
_FILL_FNS = [FN_PTE_ALLOC, "bulk_demand_zero"]


def _entries_for(pfns, writable, dirty):
    bits = _BASE_BITS | (BIT_RW if writable else np.uint64(0)) | (
        BIT_DIRTY if dirty else np.uint64(0)
    )
    return (pfns.astype(np.uint64) << PFN_SHIFT) | bits


def _check_coverage(mm, start, end, is_write):
    """Validate that VMAs cover the range with adequate permissions."""
    cursor = start
    for vma in mm.vmas.overlapping(start, end):
        if vma.start > cursor:
            raise SegmentationFault(cursor, is_write, "gap in range")
        if is_write and not vma.writable:
            raise SegmentationFault(max(vma.start, start), True, "read-only VMA")
        if not vma.readable:
            raise SegmentationFault(max(vma.start, start), is_write, "PROT_NONE VMA")
        cursor = vma.end
        if cursor >= end:
            return
    raise SegmentationFault(cursor, is_write, "gap in range")


@acquires("mmap_lock", "ptl")
def access_range(kernel, task, start, length, is_write, charge_memcpy=True):
    """Touch ``[start, start+length)`` for read or write, in bulk.

    Semantically identical to a sequential sweep of byte accesses: every
    page becomes present, writes trigger (and charge) COW and shared-table
    copies, permissions are enforced.  Returns a dict of event counts so
    benchmarks can report what the sweep did.
    """
    if length <= 0:
        return {}
    task.require_alive()
    mm = task.mm
    first = page_align_down(start)
    last = page_align_up(start + length)
    _check_coverage(mm, first, last, is_write)
    if charge_memcpy:
        kernel.cost.charge_memcpy(length, is_write)

    events = {
        "demand_zero": 0, "cow_pages": 0, "table_copies": 0,
        "write_notify": 0, "huge_faults": 0, "huge_cow": 0,
        "swap_ins": 0,
    }
    # One upper-level walk per PMD table: only a table's first slot can
    # allocate (and charge) upper levels, and a fill run is batched
    # between two walks, after those charges.
    addr = first
    while addr < last:
        table_base = level_base(addr, LEVEL_PUD)
        span_end = min(table_base + TABLE_SPAN[LEVEL_PMD], last)
        pmd_table, _ = mm.walk_to_pmd(addr, alloc=True)
        while addr < span_end:
            vma, run_end = _absent_run(mm, pmd_table, table_base, addr,
                                       span_end)
            if vma is not None and fast_fill_run(
                    kernel, mm, vma, pmd_table, table_base, addr, run_end,
                    is_write, events):
                addr = run_end
                continue
            # Per slot: this slot, or every slot of a run that bailed.
            stop = run_end if vma is not None else addr + 1
            while addr < stop:
                addr = _access_slot(kernel, mm, pmd_table, table_base, addr,
                                    span_end, is_write, events)
    # Bulk COW may have switched backing frames across the whole range;
    # purge it from every CPU caching this mm (no extra charge: matches
    # the per-fault flushes this batch replaces).
    kernel.tlbs.shootdown_mm(mm, first, last, charge=False)
    kernel.stats.page_faults += (
        events["demand_zero"] + events["cow_pages"] + events["write_notify"]
        + events["huge_faults"] + events["huge_cow"] + events["swap_ins"]
    )
    kernel.stats.demand_zero_faults += events["demand_zero"]
    kernel.stats.cow_faults += events["cow_pages"]
    kernel.stats.huge_faults += events["huge_faults"]
    kernel.stats.huge_cow_faults += events["huge_cow"]
    return events


def populate_range(kernel, task, start, length):
    """MAP_POPULATE-style pre-fault of a fresh mapping (no memcpy charge)."""
    return access_range(kernel, task, start, length, is_write=False,
                        charge_memcpy=False)


@must_hold("mmap_lock", "ptl")
def _access_slot(kernel, mm, pmd_table, table_base, lo, span_end, is_write,
                 events):
    """The per-slot access of ``[lo, slot end)``; returns the slot end."""
    pmd_index = (lo - table_base) // PMD_REGION_SIZE
    slot_start = table_base + pmd_index * PMD_REGION_SIZE
    hi = min(slot_start + PMD_REGION_SIZE, span_end)
    for plo, phi, vma in mm.vma_ranges_in_slot(lo, hi):
        if vma.is_hugetlb:
            _access_huge_slot(kernel, mm, vma, pmd_table, pmd_index,
                              slot_start, is_write, events)
        else:
            _access_leaf_piece(kernel, mm, vma, pmd_table, pmd_index,
                               slot_start, plo, phi, is_write, events)
    return hi


def _absent_run(mm, pmd_table, table_base, lo, span_end):
    """``(vma, end)`` of the batchable run starting at ``lo``, or
    ``(None, 0)``.

    A run is a maximal sequence of absent PMD slots whose parts of
    ``[lo, span_end)`` all lie inside one anonymous, non-hugetlb VMA.
    """
    index = (lo - table_base) // PMD_REGION_SIZE
    if is_present(pmd_table.entries[index]):
        return None, 0
    slot_end = table_base + (index + 1) * PMD_REGION_SIZE
    vmas = mm.vmas.overlapping(lo, min(slot_end, span_end))
    if len(vmas) != 1:
        return None, 0
    vma = vmas[0]
    if vma.is_hugetlb or vma.is_file_backed:
        return None, 0
    end = span_end
    if vma.end < span_end:
        # The slot the VMA ends in (if it ends mid-slot) holds the next
        # VMA's pages too, so it goes per slot.
        end = level_base(vma.end, LEVEL_PMD)
    n_slots = (end - table_base - 1) // PMD_REGION_SIZE + 1 - index
    present = present_mask(pmd_table.entries[index:index + n_slots])
    if present.any():
        end = table_base + (index + int(present.argmax())) * PMD_REGION_SIZE
    return vma, end


@must_hold("mmap_lock", "ptl")
def fast_fill_run(kernel, mm, vma, pmd_table, table_base, lo, hi, is_write,
                  events):
    """First touch of a run of absent slots, batched; True when engaged.

    ``[lo, hi)`` is a run of ``vma`` found by :func:`_absent_run`.  Each
    slot's allocator calls stay in the per-slot order (its table frame,
    then its data frames), because that sequence is buddy state;
    everything else is done once for the run: one scatter of the data
    rows, one write of the PMD entries, the struct-page and rmap
    updates, and one ``charge_many`` replaying each slot's table-alloc
    and demand-zero charges.  Returning False means nothing was mutated
    and the caller must run the per-slot path.
    """
    index = (lo - table_base) // PMD_REGION_SIZE
    n_slots = (hi - table_base - 1) // PMD_REGION_SIZE + 1 - index
    if not fast_path_ok(kernel):
        count_refusal(kernel, "fill", n_slots)
        return False
    n_pages = (hi - lo) // PAGE_SIZE
    # The slots' tables and data frames in one proof: no allocation of
    # the run can wake kswapd or enter reclaim.
    if not _fork_headroom_ok(kernel, n_slots + n_pages):
        count_bail(kernel, "fill", "headroom", n_slots)
        return False
    first_page = (lo - table_base) // PAGE_SIZE - index * PTRS_PER_TABLE
    end_page = (hi - table_base) // PAGE_SIZE - index * PTRS_PER_TABLE
    counts = [PTRS_PER_TABLE] * n_slots
    counts[0] -= first_page
    counts[-1] -= n_slots * PTRS_PER_TABLE - end_page

    # The buddy calls alloc_table_frame and alloc_data_frames_bulk end
    # in: the headroom proof rules out their kswapd wake and reclaim
    # retry, and fast_path_ok rules out NUMA placement.
    failpoints = kernel.failpoints
    allocator = kernel.allocator
    table_pfns = []
    pfns = np.empty(n_pages, dtype=np.int64)
    filled = 0
    for n in counts:
        failpoints.hit("bulkops.leaf_table")
        table_pfns.append(allocator.alloc(0))
        failpoints.hit("bulkops.fill_absent")
        pfns[filled:filled + n] = allocator.alloc_bulk(n)
        filled += n

    # The run's pages are entries [first_page, end_page) of its slots'
    # rows laid end to end.
    values = _entries_for(pfns, vma.writable, dirty=is_write)
    if n_pages < n_slots * PTRS_PER_TABLE:
        rows = np.zeros(n_slots * PTRS_PER_TABLE, dtype=np.uint64)
        rows[first_page:end_page] = values
        values = rows
    leaves = mm.adopt_leaf_tables(table_pfns)
    kernel.entry_store.scatter([leaf.row for leaf in leaves],
                               values.reshape(n_slots, PTRS_PER_TABLE))
    pmd_table.entries[index:index + n_slots] = _entries_for(
        np.asarray(table_pfns, dtype=np.int64), writable=True, dirty=False)
    kernel.pages.on_alloc_bulk(pfns, PG_ANON | (PG_DIRTY if is_write else 0))
    rmap = kernel.rmap
    if rmap is not None:
        families = np.array([leaf.family for leaf in leaves], dtype=np.int64)
        homes = (families[:, None] * PTRS_PER_TABLE
                 + np.arange(PTRS_PER_TABLE, dtype=np.int64))
        rmap_add_bulk(kernel, pfns,
                      homes=homes.ravel()[first_page:end_page])
    p = kernel.cost.params
    ids = np.empty((n_slots, 2), dtype=np.int64)
    ids[:] = (0, 1)
    ns = np.empty((n_slots, 2), dtype=np.float64)
    ns[:, 0] = p.pte_table_alloc * 1
    ns[:, 1] = np.asarray(counts, dtype=np.float64) * (
        p.fault_base + p.page_alloc + p.page_zero_4k)
    kernel.cost.charge_many(ids, ns, _FILL_FNS)
    events["demand_zero"] += n_pages
    kernel.fastpath_counts["fill_engaged"] += n_slots
    return True


# --------------------------------------------------------------------- #

@must_hold("mmap_lock", "ptl")
def _access_leaf_piece(kernel, mm, vma, pmd_table, pmd_index, slot_start,
                       lo, hi, is_write, events):
    cost = kernel.cost
    entry = pmd_table.entries[pmd_index]
    if is_present(entry) and is_huge(entry):
        # THP-promoted slot inside a normal VMA: PMD-granular access.
        _access_huge_slot(kernel, mm, vma, pmd_table, pmd_index,
                          slot_start, is_write, events)
        return
    if not is_present(entry):
        kernel.failpoints.hit("bulkops.leaf_table")
        leaf = mm.alloc_table(LEVEL_PTE)
        cost.charge_pte_table_alloc()
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(leaf.pfn), writable=True, dirty=False)
        kernel.note_table_write(pmd_table)
    else:
        leaf = mm.resolve(int(entry_pfn(entry)))

    lo_index = (lo - slot_start) // PAGE_SIZE
    hi_index = (hi - slot_start) // PAGE_SIZE
    sub = leaf.entries[lo_index:hi_index]
    present = present_mask(sub)
    swapped = swap_mask(sub) if kernel.swap is not None else None
    has_swap = swapped is not None and bool(swapped.any())
    if has_swap:
        need_fill = int(np.count_nonzero(~present & ~swapped))
    else:
        need_fill = int(np.count_nonzero(~present))

    shared = len(leaf.sharers) > 1
    if shared and (is_write or need_fill or has_swap):
        leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)
        events["table_copies"] += 1
        sub = leaf.entries[lo_index:hi_index]
        present = present_mask(sub)
    elif is_write and not shared and not is_writable(pmd_table.entries[pmd_index]):
        unshare_sole_owner(kernel, mm, pmd_table, pmd_index)

    if has_swap:
        # Swap entries fault back in one by one (each is a real swap-in
        # or a swap-cache hit); the table is dedicated by this point.
        for pos in np.nonzero(swapped)[0].tolist():
            swap_in_entry(kernel, mm, vma, leaf, lo_index + pos, is_write)
        events["swap_ins"] += int(np.count_nonzero(swapped))
        present = present_mask(sub)

    if need_fill:
        # Recompute absence: a reclaim pass triggered by the swap-ins'
        # allocations may have turned present entries into swap entries,
        # which must not be treated as demand-zero holes.
        absent = ~present
        if kernel.swap is not None:
            absent &= ~swap_mask(sub)
        _fill_absent(kernel, mm, vma, leaf, slot_start, lo_index, hi_index,
                     sub, absent, is_write, events)
        present = present_mask(sub)

    if not is_write:
        sub[present] |= BIT_ACCESSED
        return

    writable = writable_mask(sub)
    ro = present & ~writable
    if ro.any():
        if vma.needs_cow:
            _bulk_cow(kernel, mm, leaf, lo_index, sub, ro, events)
        elif vma.is_shared and vma.writable:
            # Write-notify: restore permission in place, dirty the pages.
            sub[ro] |= BIT_RW | BIT_DIRTY
            cost.charge_fault_spurious()
            kernel.note_table_write(leaf, int(np.count_nonzero(ro)))
            events["write_notify"] += int(np.count_nonzero(ro))
    sub[present & writable_mask(sub)] |= BIT_DIRTY | BIT_ACCESSED


@must_hold("mmap_lock", "ptl")
def _fill_absent(kernel, mm, vma, leaf, slot_start, lo_index, hi_index,
                 sub, absent, is_write, events):
    cost = kernel.cost
    n = int(np.count_nonzero(absent))
    params = cost.params
    if vma.is_file_backed:
        # File pages come from the cache one index at a time; file-backed
        # regions in the workloads are small (binaries, shmem segments).
        # Stats are charged per page, not after the loop: a cache fill
        # can fail under OOM mid-loop, and the entries already installed
        # must already be accounted for.
        absent_positions = np.nonzero(absent)[0]
        writable_now = vma.writable and vma.is_shared
        for pos in absent_positions.tolist():
            vaddr = slot_start + (lo_index + pos) * PAGE_SIZE
            page_index = vma.file_offset_of(vaddr) // PAGE_SIZE
            kernel.failpoints.hit("bulkops.file_fill")
            pfn = kernel.page_cache.get_page(vma.file, page_index)
            kernel.pages.ref_inc(pfn)
            sub[pos] = _entries_for(np.uint64(pfn), writable_now,
                                    dirty=is_write and writable_now)
            kernel.note_table_write(leaf)
            kernel.stats.file_faults += 1
            cost.charge_page_cache_lookup()
            cost.charge_fault_base()
        return
    kernel.failpoints.hit("bulkops.fill_absent")
    pfns = kernel.alloc_data_frames_bulk(mm, n)
    kernel.pages.on_alloc_bulk(pfns, PG_ANON | (PG_DIRTY if is_write else 0))
    sub[absent] = _entries_for(pfns, vma.writable, dirty=is_write)
    kernel.note_table_write(leaf, n)
    rmap_add_bulk(kernel, pfns, leaf, lo_index + np.nonzero(absent)[0])
    cost.charge(
        "bulk_demand_zero",
        n * (params.fault_base + params.page_alloc + params.page_zero_4k),
    )
    events["demand_zero"] += n


@must_hold("mmap_lock", "ptl")
def _bulk_cow(kernel, mm, leaf, lo_index, sub, ro_mask, events):
    """COW every read-only private page in the mask, vectorised."""
    cost = kernel.cost
    params = cost.params
    positions = np.nonzero(ro_mask)[0]
    old_pfns = entry_pfn(sub[positions]).astype(np.int64)

    # The refcount-1 reuse fast path, applied per page like do_wp_page.
    refs = kernel.pages.refcount[old_pfns]
    file_flags = (kernel.pages.flags[old_pfns] & np.uint16(PG_FILE)) != 0
    reusable = (refs == 1) & ~file_flags
    if reusable.any():
        reuse_positions = positions[reusable]
        sub[reuse_positions] |= BIT_RW | BIT_DIRTY
        kernel.note_table_write(leaf, int(np.count_nonzero(reusable)))
        kernel.stats.cow_reuse += int(np.count_nonzero(reusable))
        cost.charge("bulk_cow_reuse",
                    int(np.count_nonzero(reusable)) * params.fault_spurious)

    copy_mask = ~reusable
    n = int(np.count_nonzero(copy_mask))
    if n == 0:
        return
    copy_positions = positions[copy_mask]
    src = old_pfns[copy_mask]
    if kernel.rmap is not None:
        # Pin the sources: the allocation below may run direct reclaim,
        # which must not pick the very pages we are about to copy from.
        kernel.pages.ref_inc_bulk(src)
    try:
        kernel.failpoints.hit("bulkops.bulk_cow")
        dst = kernel.alloc_data_frames_bulk(mm, n)
    except OutOfMemoryError:
        if kernel.rmap is not None:
            kernel.pages.ref_dec_bulk(src)  # pins must not outlive the try
        raise
    kernel.pages.on_alloc_bulk(dst, PG_ANON | PG_DIRTY)
    kernel.phys.copy_frames_bulk(src, dst)
    if kernel.rmap is not None:
        kernel.pages.ref_dec_bulk(src)  # the pins; refs stay >= 1 here
    drop_references(kernel, sub[copy_positions])
    sub[copy_positions] = _entries_for(dst, writable=True, dirty=True)
    kernel.note_table_write(leaf, n)
    # Fresh frames from the allocator: unique by construction.
    rmap_add_bulk(kernel, dst, leaf, lo_index + copy_positions, _unique=True)
    warmth = params.odf_cow_warmth if mm.odf_lineage else 1.0
    cost.charge(
        "bulk_cow_copy",
        n * (params.fault_base + params.page_alloc + params.page_copy_4k * warmth),
    )
    if kernel.numa is not None:
        # Per source page, as the per-event COW charges it.
        for pfn in src.tolist():
            kernel.charge_numa_copy(pfn)
    events["cow_pages"] += n


@must_hold("mmap_lock", "ptl")
def _access_huge_slot(kernel, mm, vma, pmd_table, pmd_index, slot_start,
                      is_write, events):
    cost = kernel.cost
    params = cost.params
    entry = pmd_table.entries[pmd_index]
    if not is_present(entry):
        kernel.failpoints.hit("bulkops.huge_alloc")
        head = kernel.alloc_huge_frame(mm)
        kernel.pages.on_alloc_compound(head, PG_ANON)
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(head), vma.writable, dirty=is_write) | BIT_PS
        kernel.note_table_write(pmd_table)
        cost.charge_fault_base()
        cost.charge_bulk_copy(HUGE_PAGE_SIZE)
        events["huge_faults"] += 1
        return
    if is_write and not is_writable(entry):
        head = int(entry_pfn(entry))
        if kernel.pages.get_ref(head) == 1:
            pmd_table.entries[pmd_index] = entry | BIT_RW | BIT_DIRTY
            kernel.note_table_write(pmd_table)
            kernel.stats.cow_reuse += 1
            cost.charge_fault_spurious()
            return
        kernel.failpoints.hit("bulkops.huge_cow")
        new_head = kernel.alloc_huge_frame(mm)
        kernel.pages.on_alloc_compound(new_head, PG_ANON | PG_DIRTY)
        for sub_pfn in range(1 << HUGE_PAGE_ORDER):
            if kernel.phys.is_materialized(head + sub_pfn):
                kernel.phys.copy_frame(head + sub_pfn, new_head + sub_pfn)
        if kernel.pages.ref_dec(head) == 0:
            kernel.free_huge_frame(head)
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(new_head), writable=True, dirty=True) | BIT_PS
        kernel.note_table_write(pmd_table)
        cost.charge_fault_base()
        cost.charge_bulk_copy(HUGE_PAGE_SIZE)
        events["huge_cow"] += 1
        return
    if is_write:
        # sancheck: ignore[clock-charge] -- accessed/dirty bits on a huge-entry hit are hardware writes, free of kernel-clock cost
        pmd_table.entries[pmd_index] = entry | BIT_DIRTY | BIT_ACCESSED
    else:
        pmd_table.entries[pmd_index] = entry | BIT_ACCESSED
