"""Memory reclaim: LRU aging, kswapd watermarks, eviction to swap.

Structure follows Linux's ``mm/vmscan.c`` in miniature:

* Anonymous order-0 pages sit on an **active** or **inactive** LRU list
  (insertion-ordered; head = oldest).  A page enters the active list at
  its first mapping and leaves the lists when its last mapping goes.

* **Aging** gives second chances: refilling the inactive list moves the
  oldest active pages over and clears their PTE accessed bits (through
  the rmap); a page found re-accessed when the inactive scan reaches it
  is rotated back to the active list instead of being evicted.

* **Watermarks** drive the policy.  With ``n`` physical frames:
  ``min = max(64, n/256)``, ``low = 2*min``, ``high = 3*min``.  Frame
  allocations that see free memory below *low* wake kswapd, which
  reclaims in the background (cost-free to the foreground workload)
  until free memory recovers to *high*.  An allocation that actually
  fails falls back to **direct reclaim** — same shrink loop, but
  charged to the faulting task — before the kernel reports OOM.

* **Eviction** writes the victim to a swap slot (or, for a clean page
  still in the swap cache, reuses its slot with no I/O at all), then
  :func:`~repro.kernel.rmap.try_to_unmap` swaps every PTE that maps it,
  including PTEs inside fork-shared tables.

The whole subsystem is instantiated only when the machine is given a
swap device (``Machine(swap_mb=...)``); without one the kernel keeps
its legacy behavior bit for bit.
"""

from __future__ import annotations

from ..errors import KernelBug
from ..mem.page import PAGE_SIZE
from .rmap import free_one_anon_frame, test_and_clear_referenced, try_to_unmap
from ..sancheck.annotations import acquires, must_hold
from ..trace import points


class LRUList:
    """Insertion-ordered pfn list (dict-backed); head = oldest."""

    __slots__ = ("_pages",)

    def __init__(self):
        self._pages = {}

    def __len__(self):
        return len(self._pages)

    def __contains__(self, pfn):
        return pfn in self._pages

    def __iter__(self):
        return iter(self._pages)

    def add(self, pfn):
        if pfn in self._pages:
            raise KernelBug(f"pfn {pfn} already on this LRU list")
        self._pages[pfn] = None

    def discard(self, pfn):
        return self._pages.pop(pfn, False) is None

    def pop_oldest(self):
        pfn = next(iter(self._pages))
        del self._pages[pfn]
        return pfn


class ReclaimState:
    """Per-kernel reclaim state: the LRU lists, watermarks, and shrinker."""

    def __init__(self, kernel):
        self.kernel = kernel
        n_frames = kernel.allocator.n_frames
        self.wm_min = max(64, n_frames // 256)
        self.wm_low = self.wm_min * 2
        self.wm_high = self.wm_min * 3
        self.active = LRUList()
        self.inactive = LRUList()
        #: reentrancy guard: eviction's own bookkeeping must never
        #: recursively trigger another reclaim pass.
        self.running = False

    # -- LRU membership (driven by the rmap's 0 <-> mapped edges) --------

    def lru_add(self, pfn):
        self.active.add(pfn)

    def lru_remove(self, pfn):
        if not self.active.discard(pfn):
            self.inactive.discard(pfn)

    # -- aging -----------------------------------------------------------

    def _refill_inactive(self, n):
        """Move the ``n`` oldest active pages over, clearing accessed bits."""
        kernel = self.kernel
        for _ in range(min(n, len(self.active))):
            pfn = self.active.pop_oldest()
            test_and_clear_referenced(kernel, pfn)
            kernel.cost.charge_lru_scan()
            self.inactive.add(pfn)

    def _scan_oldest(self, refill):
        """Scan the oldest inactive page, refilling ``refill`` pages from
        the active list when the inactive one is empty.

        Returns the page when it is an eviction candidate (then on
        neither list), ``False`` when it was referenced and went back to
        the active list (second chance), or ``None`` when both lists are
        drained.
        """
        if not len(self.inactive):
            self._refill_inactive(refill)
            if not len(self.inactive):
                return None
        kernel = self.kernel
        pfn = self.inactive.pop_oldest()
        kernel.stats.pgscan += 1
        kernel.cost.charge_lru_scan()
        if test_and_clear_referenced(kernel, pfn):
            self.active.add(pfn)
            return False
        return pfn

    # -- shrinking -------------------------------------------------------

    @acquires("ptl")
    def shrink(self, nr_target, from_kswapd):
        """Reclaim up to ``nr_target`` frames from the LRU; returns freed."""
        kernel = self.kernel
        start_ns = kernel.cost.clock.now_ns
        freed = 0
        scanned = 0
        max_scan = 2 * (len(self.active) + len(self.inactive)) + 8
        while freed < nr_target and scanned < max_scan:
            pfn = self._scan_oldest(max(nr_target, 32))
            if pfn is None:
                break
            scanned += 1
            if pfn is not False and self.evict_candidate(pfn, from_kswapd):
                freed += 1
        if points.enabled:
            points.tracepoint(
                "reclaim.shrink",
                dur_ns=kernel.cost.clock.now_ns - start_ns,
                target=nr_target, freed=freed, scanned=scanned,
                kswapd=from_kswapd)
        return freed

    def balance(self, nr_extra=0):
        """kswapd body: reclaim until free memory reaches the high mark.

        ``nr_extra`` raises the goal for a pending large (bulk or compound)
        allocation, the way Linux passes the failing order to kswapd.
        """
        kernel = self.kernel
        allocator = kernel.allocator
        target = self.wm_high + nr_extra
        total_freed = 0
        while allocator.free_frames < target:
            goal = target - allocator.free_frames
            freed = kernel.page_cache.reclaim_clean(goal)
            if allocator.free_frames < target:
                freed += self.shrink(target - allocator.free_frames,
                                     from_kswapd=True)
            total_freed += freed
            if freed == 0:
                break
        return total_freed

    # -- slot-at-a-time interface (the SMP kswapd flow) -------------------

    def pick_victim(self):
        """Pop the next eviction candidate off the inactive list.

        Second chance is applied here (referenced pages rotate back to
        the active list); returns a pfn that is temporarily on *neither*
        list — the caller must either evict it with
        :meth:`evict_candidate` or put it back — or ``None`` when both
        lists are drained.  This is the lock-friendly decomposition of
        :meth:`shrink` used by the SMP kswapd task, which takes the
        victim's page-table locks between pick and evict.
        """
        while True:
            pfn = self._scan_oldest(32)
            if pfn is not False:
                return pfn

    @must_hold("ptl")
    def evict_candidate(self, pfn, from_kswapd=True):
        """Evict one picked victim; rotates it back to active on failure."""
        stats = self.kernel.stats
        if self._evict(pfn):
            stats.pgsteal += 1
            if from_kswapd:
                stats.pgsteal_kswapd += 1
            else:
                stats.pgsteal_direct += 1
            return True
        self.active.add(pfn)
        return False

    # -- eviction --------------------------------------------------------

    @must_hold("ptl")
    def _evict(self, pfn):
        """Try to reclaim one frame; returns True when it was freed.

        Preconditions checked here, Linux-style: the page must be a
        mapped anonymous order-0 page whose only references are its
        mappings (plus its swap-cache entry, if any).  An extra
        reference — a snapshot's, or a transient pin taken by a COW
        path around an allocation — fails the check and the page is
        skipped.
        """
        kernel = self.kernel
        pages = kernel.pages
        n_mapped = int(kernel.rmap.mapcount[pfn])
        if n_mapped <= 0:
            return False
        cached_slot = kernel.swap_cache.slot_of(pfn)
        expected = n_mapped + (1 if cached_slot is not None else 0)
        if pages.get_ref(pfn) != expected:
            return False
        if cached_slot is None:
            if kernel.failpoints.fails("reclaim.swap_slot"):
                slot = None  # injected "swap full"
            else:
                slot = kernel.swap.alloc_slot()
            if slot is None:
                return False  # swap full
            if kernel.phys.is_materialized(pfn):
                kernel.swap.write(slot, kernel.phys.read(pfn, 0, PAGE_SIZE))
            else:
                kernel.swap.write(slot, None)  # never written: store "zero"
            kernel.stats.pswpout += 1
            kernel.cost.charge_swap_out()
        else:
            # Clean swap-cache page: slot content is still exact (cached
            # pages are mapped read-only), so reclaim costs no I/O.
            slot = cached_slot
        remaining = try_to_unmap(kernel, pfn, slot)
        if cached_slot is not None:
            if kernel.swap_cache.remove_slot(slot) != pfn:
                raise KernelBug("swap cache lost track of an evicted page")
            if pages.ref_dec(pfn) != 0:
                raise KernelBug("cached page still referenced after unmap")
            free_one_anon_frame(kernel, pfn)
        elif remaining != 0:
            raise KernelBug("swapped-out page still referenced after unmap")
        if points.enabled:
            points.tracepoint("reclaim.evict", pfn=pfn, slot=slot,
                              io=cached_slot is None)
        return True
