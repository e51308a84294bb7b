"""The page-fault handler.

Faults are where On-demand-fork earns its name: work classic fork does
eagerly is performed here, on demand, at 2 MiB granularity.  The handler's
decision tree mirrors §3.4 of the paper:

1. Validate the access against the VMA (or deliver SIGSEGV).
2. If the PMD entry points at a *shared* PTE table (refcount > 1) and the
   access needs to modify the table — any write, or a miss that requires
   installing an entry — copy the table first (``copy_shared_pte_table``).
3. If the PMD entry is write-protected but the table is no longer shared,
   this process is the sole surviving owner: flip the PMD write bit back
   on and continue.
4. Proceed exactly like a stock kernel: demand-zero anonymous pages,
   page-cache fills for file mappings, data-page COW (with the refcount-1
   reuse fast path), spurious-fault dismissal.

Huge (2 MiB) mappings fault at the PMD level: demand allocation of a
compound page and whole-page COW, which is what makes huge-page COW faults
~16x slower than On-demand-fork's worst case in Table 1.  hugetlb and THP
entries share one COW/reuse body.

Every access that faults goes through :func:`fault_walk`, the one fault
loop: ``Kernel._translate_for_access`` drains it, and the SMP access flow
drives it under the split page-table locks.
"""

from __future__ import annotations

from ..errors import BusError, KernelBug, OutOfMemoryError, SegmentationFault
from ..mem.page import (
    HUGE_PAGE_ORDER,
    HUGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PG_ANON,
    PG_DIRTY,
    PG_FILE,
)
from ..paging.entries import (
    BIT_DIRTY,
    BIT_RW,
    INT_DIRTY,
    INT_PFN_MASK,
    INT_PRESENT,
    INT_PS,
    INT_RW,
    INT_SWAP,
    entry_pfn,
    is_huge,
    is_present,
    is_writable,
    make_entry,
)
import numpy as np

from ..paging.table import LEVEL_PTE, PMD_REGION_SIZE, level_base
from ..paging.walk import MMUFault
from .fork import fault_lock_key
from .rmap import rmap_add, rmap_remove
from .tableops import copy_shared_pte_table, free_anon_frames, unshare_sole_owner
from ..sancheck.annotations import acquires, must_hold
from ..trace import points


@must_hold("mmap_lock", "ptl")
def swap_in_entry(kernel, mm, vma, leaf, pte_index, is_write):
    """Fault-time swap-in of one swap-entry PTE (Linux's ``do_swap_page``).

    The leaf table is already dedicated to ``mm`` here: shared tables are
    copied before any entry is modified, swap references included, so
    installing the page cannot disturb the other sharers.

    A swap-cache hit maps the cached frame at no I/O cost.  A miss reads
    the slot into a fresh frame and inserts it into the cache, so sharers
    that fault later converge on the *same* frame — required for COW
    correctness when a fork-shared page was swapped out.  Cached frames
    stay read-only (the exclusivity check below), so cache content never
    diverges from slot content and writes COW away normally.
    """
    slot = (leaf.entries.item(pte_index) & INT_PFN_MASK) >> PAGE_SHIFT
    kernel.cost.charge_swap_cache_lookup()
    pfn = kernel.swap_cache.pfn_of(slot)
    cache_hit = pfn is not None
    if pfn is None:
        kernel.failpoints.hit("fault.swap_in")
        pfn = kernel.alloc_data_frame(mm)
        kernel.pages.on_alloc(pfn, PG_ANON)  # this ref becomes the cache's
        data = kernel.swap.read(slot)
        if data is not None:
            kernel.phys.write(pfn, 0, data)
        kernel.swap_cache.add(slot, pfn)
        kernel.stats.pswpin += 1
        kernel.cost.charge_page_alloc()
        kernel.cost.charge_swap_in()
    else:
        kernel.stats.swap_cache_hits += 1
        kernel.cost.charge_fault_spurious()
    if points.enabled:
        points.tracepoint("fault.swap_in", slot=slot, pfn=pfn,
                          cache_hit=cache_hit)
    kernel.pages.ref_inc(pfn)  # the table's ownership reference
    rmap_add(kernel, pfn, leaf, pte_index)
    # The PTE's slot reference is consumed; when it was the last one the
    # slot is released and the cache entry (with its page ref) goes too.
    kernel.swap_put(slot)
    # Map writable only when exclusive: a frame still held by the swap
    # cache or a snapshot must COW on write like any shared page.
    writable = vma.writable and kernel.pages.get_ref(pfn) == 1
    leaf.set(pte_index, make_entry(
        pfn, writable=writable, user=True,
        dirty=is_write and writable, accessed=True,
    ))
    kernel.note_table_write(leaf)
    return pfn


#: Yielded by :func:`fault_walk` each time a walk faults, before the
#: fault's split-lock key; the SMP access flow preempts there.
FAULT_ENTRY = "fault-entry"
#: Yielded by :func:`fault_walk` after each fault; the lock taken for the
#: key goes before the next walk.
FAULT_DONE = "fault-done"


@must_hold("mmap_lock", "ptl")
def fault_walk(kernel, task, vaddr, is_write):
    """The fault loop of one access, entered once its walk has faulted.

    For each fault it yields :data:`FAULT_ENTRY`, then the fault's
    split-lock key (:func:`~repro.kernel.fork.fault_lock_key`), then
    :data:`FAULT_DONE`; the caller holds the key's lock between the key
    and ``FAULT_DONE``.  Two values the caller sends steer the locking:
    resumed after ``FAULT_ENTRY`` with a false value (the syscall path,
    with no other CPU to lock out) it yields ``None`` instead of reading
    the key; resumed after the key with a true value (the caller queued
    for that lock, so other CPUs ran) it reads the key again and skips
    the handler when the table changed meanwhile (the re-check Linux
    does after ``pte_offset_map_lock``).  After each ``FAULT_DONE`` it
    walks again and returns the pfn once a walk succeeds.
    ``Kernel._translate_for_access`` drains it; the SMP access flow takes
    the locks and lets other vCPUs run at each entry.
    """
    mm = task.mm
    for _attempt in range(8):
        locking = yield FAULT_ENTRY
        key = fault_lock_key(mm, vaddr) if locking else None
        waited = yield key
        if not waited or fault_lock_key(mm, vaddr) == key:
            kernel.fault_handler.handle(task, vaddr, is_write)
        yield FAULT_DONE
        try:
            return kernel.fill_tlb(mm, kernel.active_tlb(mm), vaddr, is_write)
        except MMUFault:
            pass
    raise KernelBug(f"fault loop did not converge at {vaddr:#x}")


class FaultHandler:
    """Resolves MMU faults for every task on the machine."""

    def __init__(self, kernel):
        self.kernel = kernel

    # ------------------------------------------------------------------ #

    @must_hold("mmap_lock")
    @acquires("ptl")
    def handle(self, task, vaddr, is_write):
        """Fix up a fault or raise ``SegmentationFault``/``BusError``."""
        kernel = self.kernel
        mm = task.mm
        kernel.stats.page_faults += 1
        start_ns = kernel.cost.clock.now_ns
        kernel.cost.charge_fault_base()

        vma = mm.vmas.find(vaddr)
        if vma is None:
            raise SegmentationFault(vaddr, is_write, "no VMA")
        if is_write and not vma.writable:
            raise SegmentationFault(vaddr, is_write, "write to read-only VMA")
        if not is_write and not vma.readable:
            raise SegmentationFault(vaddr, is_write, "VMA not readable")

        if vma.is_hugetlb:
            self._handle_huge(mm, vma, vaddr, is_write)
        else:
            self._handle_normal(mm, vma, vaddr, is_write)
        # A COW resolution may have switched the backing frame, so the
        # faulting page is purged from every CPU caching this mm (remote
        # vCPUs get an IPI; ptep_clear_flush_notify does the same).
        kernel.tlbs.shootdown_page(mm, vaddr)
        if points.enabled:
            points.tracepoint(
                "fault.handle",
                dur_ns=kernel.cost.clock.now_ns - start_ns,
                vaddr=vaddr, write=is_write, huge_vma=vma.is_hugetlb)

    # ---- 4 KiB path ---------------------------------------------------- #

    @must_hold("mmap_lock", "ptl")
    def _handle_normal(self, mm, vma, vaddr, is_write):
        # Entries are read with ndarray.item and tested as ints, as
        # Walker.translate does: a np.uint64 op costs ~10x an int op.
        kernel = self.kernel
        pmd_table, pmd_index = mm.walk_to_pmd(vaddr, alloc=True)
        pmd_entry = pmd_table.entries.item(pmd_index)
        slot_start = vaddr & -PMD_REGION_SIZE
        pte_index = (vaddr >> PAGE_SHIFT) & 0x1FF

        if pmd_entry & INT_PRESENT:
            if pmd_entry & INT_PS:
                # A THP-promoted region: handle at PMD granularity.
                self._huge_entry_fault(mm, pmd_table, pmd_index, vaddr,
                                       is_write)
                return
            leaf_pfn = (pmd_entry & INT_PFN_MASK) >> PAGE_SHIFT
            leaf = mm.resolve(leaf_pfn)
            # KCSAN watchpoint on the leaf table, keyed by the pfn the
            # split-PTL protocol locks on for this address.
            kernel.san_access("pt", leaf_pfn)
            shared = len(leaf.sharers) > 1
            if shared and (is_write
                           or not leaf.entries.item(pte_index) & INT_PRESENT):
                # §3.4: the kernel must modify the table (install an entry
                # or start data COW), so it first takes a dedicated copy.
                leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)
            elif not shared and not pmd_entry & INT_RW and is_write:
                # §3.4: refcount came back to one; both tables involved in
                # the last copy are now dedicated.
                unshare_sole_owner(kernel, mm, pmd_table, pmd_index)
        else:
            kernel.failpoints.hit("fault.pte_table_alloc")
            leaf = mm.alloc_table(LEVEL_PTE)
            kernel.cost.charge_pte_table_alloc()
            pmd_table.set(pmd_index, make_entry(leaf.pfn, writable=True, user=True))
            kernel.note_table_write(pmd_table)

        pte = leaf.entries.item(pte_index)

        if not pte & INT_PRESENT:
            if pte & INT_SWAP:
                swap_in_entry(kernel, mm, vma, leaf, pte_index, is_write)
            elif vma.is_file_backed:
                self._file_fault(mm, vma, leaf, pte_index, vaddr, is_write)
            else:
                self._demand_zero(mm, vma, leaf, pte_index, is_write)
        elif is_write and not pte & INT_RW:
            self._write_protect_fault(mm, vma, leaf, pte_index, vaddr)
        else:
            kernel.stats.spurious_faults += 1
            kernel.cost.charge_fault_spurious()
            if points.enabled:
                points.tracepoint("fault.spurious", vaddr=vaddr)

    @must_hold("mmap_lock", "ptl")
    def _demand_zero(self, mm, vma, leaf, pte_index, is_write):
        """Anonymous first touch: hand out a zeroed exclusive page."""
        kernel = self.kernel
        kernel.failpoints.hit("fault.demand_zero")
        pfn = kernel.alloc_data_frame(mm)
        kernel.pages.on_alloc(pfn, PG_ANON)
        kernel.phys.zero(pfn)
        kernel.cost.charge_page_alloc()
        kernel.cost.charge_page_zero()
        leaf.set(pte_index, make_entry(
            pfn, writable=vma.writable, user=True, dirty=is_write, accessed=True,
        ))
        kernel.note_table_write(leaf)
        rmap_add(kernel, pfn, leaf, pte_index)
        kernel.stats.demand_zero_faults += 1
        if points.enabled:
            points.tracepoint("fault.demand_zero", pfn=pfn)

    @must_hold("mmap_lock", "ptl")
    def _file_fault(self, mm, vma, leaf, pte_index, vaddr, is_write):
        """Fill from the page cache (§3.7: forwarded to the cache/fs)."""
        kernel = self.kernel
        file_offset = vma.file_offset_of(level_base(vaddr, 1))
        if file_offset >= _round_up(vma.file.size, PAGE_SIZE):
            raise BusError(vaddr, "access beyond end of file")
        page_index = file_offset // PAGE_SIZE
        cache_pfn = kernel.page_cache.get_page(vma.file, page_index)
        kernel.cost.charge_page_cache_lookup()
        kernel.stats.file_faults += 1

        if vma.is_private and is_write:
            # Private file write: COW straight into an anonymous page.
            kernel.failpoints.hit("fault.file_cow")
            new_pfn = kernel.alloc_data_frame(mm)
            kernel.pages.on_alloc(new_pfn, PG_ANON)
            kernel.phys.copy_frame(cache_pfn, new_pfn)
            kernel.cost.charge_page_alloc()
            kernel.cost.charge_page_copy_4k()
            kernel.charge_numa_copy(cache_pfn)
            leaf.set(pte_index, make_entry(
                new_pfn, writable=True, user=True, dirty=True, accessed=True,
            ))
            kernel.note_table_write(leaf)
            rmap_add(kernel, new_pfn, leaf, pte_index)
            if points.enabled:
                points.tracepoint("fault.file", vaddr=vaddr, pfn=new_pfn,
                                  private_cow=True)
            return

        # Map the cache page itself; the table takes its ownership ref.
        kernel.pages.ref_inc(cache_pfn)
        writable = vma.writable and vma.is_shared
        leaf.set(pte_index, make_entry(
            cache_pfn, writable=writable, user=True,
            dirty=is_write and writable, accessed=True,
        ))
        kernel.note_table_write(leaf)
        if is_write and writable:
            kernel.page_cache.mark_dirty(cache_pfn)
        if points.enabled:
            points.tracepoint("fault.file", vaddr=vaddr, pfn=cache_pfn,
                              private_cow=False)

    @must_hold("mmap_lock", "ptl")
    def _write_protect_fault(self, mm, vma, leaf, pte_index, vaddr):
        """A write hit a present read-only PTE: COW, reuse, or re-enable."""
        kernel = self.kernel
        pte = leaf.entries.item(pte_index)
        pfn = (pte & INT_PFN_MASK) >> PAGE_SHIFT

        if vma.is_shared:
            # Shared mapping write-notify: permission restored in place.
            leaf.entries[pte_index] = pte | INT_RW | INT_DIRTY
            kernel.note_table_write(leaf)
            if kernel.pages.has_flags(pfn, PG_FILE):
                kernel.page_cache.mark_dirty(pfn)
            kernel.cost.charge_fault_spurious()
            return

        is_file_page = kernel.pages.has_flags(pfn, PG_FILE)
        if not is_file_page and kernel.pages.get_ref(pfn) == 1:
            # Exclusive anonymous page: reuse without copying.
            leaf.entries[pte_index] = pte | INT_RW | INT_DIRTY
            kernel.note_table_write(leaf)
            kernel.stats.cow_reuse += 1
            kernel.cost.charge_fault_spurious()
            if points.enabled:
                points.tracepoint("fault.cow", vaddr=vaddr, pfn=pfn,
                                  reuse=True)
            return

        if kernel.rmap is not None:
            # Pin the source across the allocation: a direct reclaim
            # triggered inside alloc_data_frame must not evict the page
            # we are about to copy from.
            kernel.pages.ref_inc(pfn)
        try:
            kernel.failpoints.hit("fault.cow_copy")
            new_pfn = kernel.alloc_data_frame(mm)
        except OutOfMemoryError:
            if kernel.rmap is not None:
                kernel.pages.ref_dec(pfn)  # the pin must not outlive the try
            raise
        kernel.pages.on_alloc(new_pfn, PG_ANON | PG_DIRTY)
        kernel.phys.copy_frame(pfn, new_pfn)
        kernel.cost.charge_page_alloc()
        kernel.cost.charge_page_copy_4k(warm=mm.odf_lineage)
        kernel.charge_numa_copy(pfn)
        if kernel.rmap is not None:
            kernel.pages.ref_dec(pfn)  # drop the pin
            rmap_remove(kernel, pfn)  # this mapping is replaced
        if kernel.pages.ref_dec(pfn) == 0:
            # Possible when the last other reference vanished between the
            # refcount read and here in a real kernel; in the model it
            # means we raced nothing, but handle it for robustness.
            free_anon_frames(kernel, np.asarray([pfn], dtype=np.int64))
        leaf.set(pte_index, make_entry(
            new_pfn, writable=True, user=True, dirty=True, accessed=True,
        ))
        kernel.note_table_write(leaf)
        rmap_add(kernel, new_pfn, leaf, pte_index)
        kernel.stats.cow_faults += 1
        if points.enabled:
            points.tracepoint("fault.cow", vaddr=vaddr, pfn=new_pfn,
                              reuse=False)

    @must_hold("mmap_lock", "ptl")
    def _huge_entry_fault(self, mm, pmd_table, pmd_index, vaddr, is_write):
        """Fault on a present 2 MiB entry, hugetlb or THP: whole-page COW,
        reuse in place, or a spurious fault.

        Reuse needs no VMA check: a THP entry only ever sits in a private
        anonymous VMA (khugepaged collapses nothing else, and fork and
        VMA splits keep the flags), which ``audit_machine`` verifies.
        """
        kernel = self.kernel
        entry = pmd_table.entries[pmd_index]
        if is_write and not is_writable(entry):
            head = int(entry_pfn(entry))
            if kernel.pages.get_ref(head) == 1:
                pmd_table.entries[pmd_index] = entry | BIT_RW | BIT_DIRTY
                kernel.note_table_write(pmd_table)
                kernel.stats.cow_reuse += 1
                kernel.cost.charge_fault_spurious()
                if points.enabled:
                    points.tracepoint("fault.huge", vaddr=vaddr, cow=True,
                                      reuse=True)
                return
            kernel.failpoints.hit("fault.huge_cow")
            new_head = kernel.alloc_huge_frame(mm)
            kernel.pages.on_alloc_compound(new_head, PG_ANON | PG_DIRTY)
            for sub in range(1 << HUGE_PAGE_ORDER):
                if kernel.phys.is_materialized(head + sub):
                    kernel.phys.copy_frame(head + sub, new_head + sub)
            kernel.cost.charge_page_alloc()
            kernel.cost.charge_bulk_copy(HUGE_PAGE_SIZE)
            kernel.charge_numa_copy(head, 1 << HUGE_PAGE_ORDER)
            if kernel.pages.ref_dec(head) == 0:
                kernel.free_huge_frame(head)
            pmd_table.set(pmd_index, make_entry(
                new_head, writable=True, user=True, huge=True,
                dirty=True, accessed=True,
            ))
            kernel.note_table_write(pmd_table)
            # The whole 2 MiB region changed frames: every cached
            # translation under this PMD entry is stale, not just the
            # faulting page.
            slot_start = level_base(vaddr, 2)
            kernel.tlbs.shootdown_mm(mm, slot_start,
                                     slot_start + HUGE_PAGE_SIZE,
                                     charge=False)
            kernel.stats.huge_cow_faults += 1
            if points.enabled:
                points.tracepoint("fault.huge", vaddr=vaddr, cow=True,
                                  reuse=False)
            return
        kernel.stats.spurious_faults += 1
        kernel.cost.charge_fault_spurious()
        if points.enabled:
            points.tracepoint("fault.spurious", vaddr=vaddr)

    # ---- 2 MiB (hugetlb) path ------------------------------------------- #

    @must_hold("mmap_lock", "ptl")
    def _handle_huge(self, mm, vma, vaddr, is_write):
        """hugetlb: demand-allocate an absent 2 MiB page; a present one
        faults like a THP entry."""
        kernel = self.kernel
        pmd_table, pmd_index = mm.walk_to_pmd(vaddr, alloc=True)
        entry = pmd_table.entries[pmd_index]

        if not is_present(entry):
            kernel.failpoints.hit("fault.huge_alloc")
            head = kernel.alloc_huge_frame(mm)
            kernel.pages.on_alloc_compound(head, PG_ANON)
            kernel.cost.charge_page_alloc()
            kernel.cost.charge_bulk_copy(HUGE_PAGE_SIZE)  # zeroing 2 MiB
            pmd_table.set(pmd_index, make_entry(
                head, writable=vma.writable, user=True, huge=True,
                dirty=is_write, accessed=True,
            ))
            kernel.note_table_write(pmd_table)
            kernel.stats.huge_faults += 1
            if points.enabled:
                points.tracepoint("fault.huge", vaddr=vaddr, cow=False,
                                  reuse=False)
            return

        if not is_huge(entry):
            raise SegmentationFault(vaddr, is_write, "4k entry in hugetlb VMA")
        self._huge_entry_fault(mm, pmd_table, pmd_index, vaddr, is_write)


def _round_up(value, granule):
    return (value + granule - 1) & ~(granule - 1)
