"""The calibrated timing model.

Every kernel operation in the simulator charges virtual nanoseconds through
a :class:`CostModel`.  The constants live in :class:`CostParams`; each one is
annotated with the paper measurement it was fitted to, so the calibration is
auditable in one place.  The *shape* of every reproduced figure (linearity,
orderings, crossovers) emerges from operation counts on the real simulated
paging structures; only the nanoseconds-per-operation scale comes from these
fitted constants.

Headline fits (see DESIGN.md §5 for derivations):

* Classic fork, per last-level PTE entry: 18.38 ns, split across the
  Figure 3 hot spots (``compound_head`` 63.9 %, ``page_ref_inc`` 14.4 %,
  ``__read_once_size`` 15.3 %, ``vm_normal_page`` 0.8 %, remainder 5.6 %).
  Together with the per-table and fixed costs this reproduces Figure 2/7:
  1 GB -> 6.54 ms and 50 GB -> 253.94 ms.
* Classic fork fixed cost: 1.462 ms "warm-up" (first-touch misses on
  ``struct page`` and allocator state) + 25 us task duplication; matches
  the Figure 2 intercept (~4 ms at 0.5 GB).
* On-demand-fork: 56 us fixed + 33.5 ns per shared PTE table; reproduces
  1 GB -> 0.10 ms and 50 GB -> 0.94 ms (§5.2.2).
* Huge-page fork: 90 us fixed + 156 ns per PMD-level huge entry
  (includes the PMD spin lock); reproduces Figure 4 (1 GB -> 0.17 ms).
* Page faults (Table 1): 1.0 us base; 1.3 us per 4 KiB COW copy; table
  copy reuses the 18.38 ns/entry machinery (worst case 12.2 us); 2 MiB
  bulk copy at 10.6 GB/s (198 us).
* Concurrency (§2.1): the struct-page cacheline portion of the per-PTE
  cost scales by ``1 + 2.10 * (k - 1)`` for ``k`` concurrent forkers;
  reproduces 3x concurrent 1 GB forks at 22.4 ms.
* Cache warmth (§5.2.4): the data copy of COW faults in odfork lineages
  runs ~10 % cheaper (shared tables and untouched struct pages leave more
  cache to user data), modelling the paper's explanation for
  on-demand-fork's positive time reduction even at 100 % write access.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..errors import ConfigurationError

# Names used for profiler attribution; Figure 3 reports these symbols.
FN_COMPOUND_HEAD = "compound_head"
FN_PAGE_REF_INC = "page_ref_inc"
FN_READ_ONCE = "__read_once_size"
FN_VM_NORMAL_PAGE = "vm_normal_page"
FN_COPY_ONE_PTE = "copy_one_pte_other"
FN_PTE_ALLOC = "pte_alloc_one"
FN_UPPER_COPY = "copy_upper_levels"
FN_TASK_DUP = "dup_task_struct"
FN_VMA_DUP = "dup_mmap_vma"
FN_FORK_WARMUP = "fork_struct_page_warmup"
FN_ODF_SHARE = "odf_share_pte_table"
FN_ODF_FIXED = "odf_fixed"
FN_HUGE_COPY = "copy_huge_pmd"
FN_FAULT_BASE = "handle_mm_fault"
FN_PAGE_COPY = "copy_user_page"
FN_PAGE_ZERO = "clear_user_page"
FN_BULK_COPY = "copy_huge_user_page"
FN_TABLE_COPY = "odf_copy_pte_table"
FN_PT_UNSHARE = "odf_reuse_sole_table"
FN_TLB_FLUSH = "flush_tlb"
FN_ZAP_PTE = "zap_pte_range"
FN_TABLE_FREE = "pte_free"
FN_TABLE_UNSHARE_DEC = "odf_put_pte_table"
FN_SYSCALL = "syscall_entry"
FN_MEMCPY = "user_memcpy"
FN_PAGE_CACHE = "page_cache"
FN_SWAP_OUT = "swap_writepage"
FN_SWAP_IN = "swap_readpage"
FN_SWAP_CACHE = "swap_cache_lookup"
FN_LRU_SCAN = "shrink_inactive_list"
FN_RMAP_UNMAP = "try_to_unmap"
FN_SHARED_UNMAP = "odf_shared_table_unmap"
FN_DIRECT_RECLAIM = "direct_reclaim"
FN_MMAP_LOCK = "mmap_lock"
FN_PT_LOCK = "ptl_lock"
FN_LOCK_WAKEUP = "lock_handoff"
FN_IPI = "flush_tlb_others"
FN_CTX_SWITCH = "context_switch"
FN_NUMA_ACCESS = "numa_remote_access"
FN_NUMA_WALK = "numa_remote_walk"
FN_REPLICA_SYNC = "mitosis_pgtable_update"
FN_REPLICA_ALLOC = "mitosis_replica_alloc"
FN_REPLICA_COLLAPSE = "mitosis_replica_collapse"
FN_MIGRATE = "migrate_pages"


@dataclass(frozen=True)
class CostParams:
    """Calibrated cost constants, in nanoseconds unless noted.

    The defaults reproduce the paper's testbed (16-core AMD EPYC 7302P,
    DDR4, Linux 5.6.19).  Construct with overrides for sensitivity studies;
    ``replace_with`` returns a modified copy.
    """

    # --- classic fork: per-PTE-entry machinery (copy_one_pte), 18.38 ns
    # total, split per the Figure 3 perf profile ------------------------
    pte_copy_compound_head: float = 11.74
    pte_copy_page_ref_inc: float = 2.66
    pte_copy_read_once: float = 2.81
    pte_copy_vm_normal_page: float = 0.145
    pte_copy_other: float = 1.03

    # --- classic fork: per-table and fixed costs -----------------------
    pte_table_alloc: float = 450.0        # pte_alloc_one + list insertion
    upper_table_copy: float = 400.0       # per upper-level table visited
    task_dup_fixed: float = 25_000.0      # dup_task_struct + fds + sched
    vma_dup_each: float = 1_500.0         # per VMA copied into the child
    fork_warmup_fixed: float = 1_462_000.0  # struct-page cache warm-up

    # --- on-demand-fork invocation --------------------------------------
    odf_share_per_table: float = 33.5     # refcount inc + PMD entry write
    odf_fixed: float = 56_000.0           # fitted residual (§5.2.2)

    # --- huge-page (2 MiB) fork path ------------------------------------
    huge_entry_copy: float = 156.0        # per PMD huge entry, incl. lock
    # Extra fixed cost when fork copies only huge entries (no leaf-table
    # machinery, hence no struct-page warm-up); fits Figure 4's 0.17 ms at
    # 1 GB together with task/VMA/upper costs and 512 x huge_entry_copy.
    huge_fork_fixed_extra: float = 62_400.0

    # --- page faults -----------------------------------------------------
    fault_base: float = 1_000.0           # trap + vma lookup + walk
    fault_spurious: float = 250.0         # TLB-stale / already-fixed fault
    page_copy_4k: float = 1_300.0         # cold 4 KiB copy (Table 1)
    page_zero_4k: float = 550.0           # clear_user_page on demand-zero
    page_alloc: float = 400.0             # buddy hot-list allocation
    bulk_copy_per_byte: float = 0.0941    # 10.6 GB/s streaming (2 MiB COW)
    pt_unshare_flip: float = 150.0        # sole owner flips PMD.RW back on
    tlb_flush: float = 200.0              # single-context invalidation
    tlb_flush_per_page: float = 10.0      # range-flush increment

    # --- teardown / unmap -------------------------------------------------
    zap_per_pte: float = 20.0             # per present entry on teardown
    table_free: float = 300.0             # pte_free + accounting
    odf_table_put: float = 40.0           # shared-table refcount decrement

    # --- syscall / user-memory primitives ---------------------------------
    syscall_fixed: float = 1_800.0        # mmap/munmap/mremap entry cost
    memcpy_read_per_byte: float = 0.054     # 19.9 GB/s (fits Fig 8 at 8 %)
    memcpy_write_per_byte: float = 0.158    # 6.3 GB/s (fits Fig 8 at 4 %)
    page_cache_lookup: float = 350.0

    # --- reclaim / swap ----------------------------------------------------
    # Swap I/O modelled on a fast NVMe device: ~12 us to write and ~9 us
    # to read one 4 KiB page, end to end (block submission + DMA).
    swap_out_4k: float = 12_000.0
    swap_in_4k: float = 9_000.0
    swap_cache_lookup: float = 300.0      # xarray lookup in the swap cache
    lru_scan_per_page: float = 30.0       # shrink loop per page examined
    rmap_unmap_per_entry: float = 120.0   # find + swap one PTE via rmap
    shared_table_unmap: float = 400.0     # in-place edit of a shared table
    direct_reclaim_fixed: float = 2_500.0  # foreground reclaim entry cost

    # --- SMP: kernel locking and TLB shootdown IPIs -----------------------
    mmap_lock_acquire: float = 40.0       # uncontended rwsem fast path
    pt_lock_acquire: float = 25.0         # split page-table spinlock
    lock_contended_wakeup: float = 120.0  # queue handoff after a blocked wait
    ipi_send_fixed: float = 1_000.0       # APIC write + send window
    ipi_send_per_cpu: float = 250.0       # per-target vector cost
    ipi_handle: float = 800.0             # remote flush handler + ack
    ctx_switch: float = 1_200.0           # vCPU runqueue task switch

    # --- NUMA topology (distance factor = distance/local - 1; every
    # numa_* constant is the extra cost at factor 1.0, i.e. a SLIT-20
    # hop on a local distance of 10 — typical two-socket DRAM numbers) --
    numa_remote_access: float = 120.0     # extra per remote data access
    numa_remote_walk_per_level: float = 90.0  # extra per remote table touch
    numa_migrate_per_page: float = 1_500.0  # migrate_pages copy + remap
    ipi_cross_node_extra: float = 400.0   # interconnect hop per remote node
    # Mitosis replication: per-replica entry update writes, per-frame
    # replica allocation, and the collapse that frees one replica frame.
    mitosis_replica_write: float = 25.0
    mitosis_replica_alloc: float = 450.0
    mitosis_collapse_per_replica: float = 300.0

    # --- cross-cutting factors --------------------------------------------
    contention_alpha: float = 2.10        # struct-page cacheline scaling
    odf_cow_warmth: float = 0.90          # COW copy discount after odfork

    def replace_with(self, **overrides):
        """Return a copy with ``overrides`` applied, validating names."""
        valid = {f.name for f in fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ConfigurationError(f"unknown cost parameters: {sorted(unknown)}")
        return replace(self, **overrides)

    @property
    def pte_copy_total(self):
        """Total per-PTE-entry cost of the classic fork leaf loop."""
        return (
            self.pte_copy_compound_head
            + self.pte_copy_page_ref_inc
            + self.pte_copy_read_once
            + self.pte_copy_vm_normal_page
            + self.pte_copy_other
        )


@dataclass
class CostModel:
    """Charges calibrated costs to the virtual clock with attribution.

    Parameters
    ----------
    clock:
        The machine's :class:`~repro.timing.clock.SimClock`.
    params:
        The constants table.
    profiler:
        Optional :class:`~repro.analysis.profiler.Profiler`; when present
        every charge is attributed to a named kernel function, which is how
        the Figure 3 reproduction works.
    noise:
        Optional :class:`~repro.timing.noise.NoiseModel` applied
        multiplicatively to each charge (off for unit tests).
    contention_source:
        Optional zero-argument callable returning the *emergent* number of
        CPUs concurrently inside the fork copy loop.  When set (by the SMP
        scheduler) it overrides the static ``contention_level``, which
        remains as the fitted-alpha fallback for ``Machine(smp=None)``.
    """

    clock: object
    params: CostParams = field(default_factory=CostParams)
    profiler: object = None
    noise: object = None
    contention_level: int = 1
    suspended: bool = False
    contention_source: object = None

    def background(self):
        """Context manager: suspend charging for off-CPU background work.

        The simulator has one clock (the measured process's CPU); work that
        a real system does on another core in parallel — e.g. a snapshot
        child serialising and exiting while the parent serves requests —
        runs inside this context so it does not inflate foreground time.
        """
        return _SuspendCharges(self)

    def charge(self, fn_name, ns):
        """Charge ``ns`` to the clock, attributed to ``fn_name``."""
        if self.suspended or ns <= 0:
            return 0
        if self.noise is not None:
            ns = self.noise.perturb(ns)
        ns = int(round(ns))
        # ``SimClock.advance`` and ``Profiler.add`` inlined: ``ns`` is
        # already a non-negative int (noise factors are lognormal).
        self.clock._now_ns += ns
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            profiler._totals[fn_name] += ns
        return ns

    def charge_many(self, fn_ids, ns_values, fn_table):
        """Charge a whole *sequence* of events as one vectorised operation.

        ``fn_ids`` indexes ``fn_table`` (a list of FN_* names) and
        ``ns_values`` carries the nominal nanoseconds, one entry per event
        in the exact order a per-event caller would have issued them.  The
        result is bit-identical to that per-event loop:

        * events with ``ns <= 0`` are skipped and consume **no** noise draw
          (``charge`` returns before ``perturb``);
        * noise factors come from the same buffered stream, refilled at the
          same boundaries (:meth:`NoiseModel.take`);
        * each event rounds half-even on its own (``np.rint`` == Python's
          ``round``) and the clock advances by the sum of the per-event
          integers;
        * the profiler receives the per-function sums of those integers.

        Returns the total nanoseconds advanced.
        """
        import numpy as np
        if self.suspended:
            return 0
        ns = np.asarray(ns_values, dtype=np.float64).ravel()
        ids = np.asarray(fn_ids, dtype=np.int64).ravel()
        mask = ns > 0.0
        if not mask.any():
            return 0
        live = ns[mask]
        live_ids = ids[mask]
        if self.noise is not None:
            draws = self.noise.take(live.size)
            if draws is not None:
                live = live * draws
        rounded = np.rint(live).astype(np.int64)
        total = int(rounded.sum())
        self.clock.advance(total)
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            sums = np.bincount(live_ids, weights=rounded,
                               minlength=len(fn_table))
            totals = profiler._totals
            # Every live event touches its function's total — including
            # sub-ns charges whose perturbed value rounds to 0, which the
            # per-event loop records as a zero-valued entry.
            live_fns = np.bincount(live_ids, minlength=len(fn_table))
            for idx in np.flatnonzero(live_fns).tolist():
                totals[fn_table[idx]] += int(sums[idx])
        return total

    def contention_factor(self):
        """Multiplier on struct-page cacheline costs at the current level."""
        if self.contention_source is not None:
            k = max(1, self.contention_source())
        else:
            k = max(1, self.contention_level)
        return 1.0 + self.params.contention_alpha * (k - 1)

    # ---- classic fork ---------------------------------------------------

    def charge_fork_fixed(self, n_vmas):
        """Task and VMA duplication charges common to a classic fork."""
        p = self.params
        self.charge(FN_TASK_DUP, p.task_dup_fixed)
        self.charge(FN_VMA_DUP, p.vma_dup_each * n_vmas)

    def charge_fork_warmup(self):
        """struct-page cache warm-up: paid only when the leaf loop runs."""
        self.charge(FN_FORK_WARMUP, self.params.fork_warmup_fixed)

    def charge_copy_pte_entries(self, n_entries):
        """The copy_one_pte leaf loop over ``n_entries`` present entries."""
        if n_entries <= 0:
            return
        p = self.params
        factor = self.contention_factor()
        self.charge(FN_COMPOUND_HEAD, p.pte_copy_compound_head * n_entries * factor)
        self.charge(FN_PAGE_REF_INC, p.pte_copy_page_ref_inc * n_entries * factor)
        self.charge(FN_READ_ONCE, p.pte_copy_read_once * n_entries)
        self.charge(FN_VM_NORMAL_PAGE, p.pte_copy_vm_normal_page * n_entries)
        self.charge(FN_COPY_ONE_PTE, p.pte_copy_other * n_entries)

    def charge_pte_table_alloc(self, n_tables=1):
        """Allocation of ``n_tables`` leaf tables (pte_alloc_one)."""
        self.charge(FN_PTE_ALLOC, self.params.pte_table_alloc * n_tables)

    def charge_upper_copy(self, n_tables=1):
        """Copying/creating ``n_tables`` upper-level tables."""
        self.charge(FN_UPPER_COPY, self.params.upper_table_copy * n_tables)

    # ---- on-demand-fork --------------------------------------------------

    def charge_odfork_fixed(self, n_vmas):
        """Fixed invocation charges of an on-demand-fork."""
        p = self.params
        self.charge(FN_TASK_DUP, p.task_dup_fixed)
        self.charge(FN_VMA_DUP, p.vma_dup_each * n_vmas)
        self.charge(FN_ODF_FIXED, p.odf_fixed)

    def charge_share_tables(self, n_tables):
        """Sharing ``n_tables`` leaf tables (refcount + PMD write)."""
        if n_tables > 0:
            self.charge(FN_ODF_SHARE, self.params.odf_share_per_table * n_tables)

    def charge_table_put(self, n_tables=1):
        """Shared-table refcount decrements on unmap/exit."""
        self.charge(FN_TABLE_UNSHARE_DEC, self.params.odf_table_put * n_tables)

    # ---- huge pages -------------------------------------------------------

    def charge_huge_fork_fixed(self):
        """Fixed extra of a huge-entry-only classic fork."""
        self.charge(FN_HUGE_COPY, self.params.huge_fork_fixed_extra)

    def charge_copy_huge_entries(self, n_entries):
        """Eager copy of ``n_entries`` PMD-level huge entries."""
        if n_entries > 0:
            self.charge(FN_HUGE_COPY, self.params.huge_entry_copy * n_entries)

    # ---- faults -----------------------------------------------------------

    def charge_fault_base(self):
        """Trap + VMA lookup + walk of one page fault."""
        self.charge(FN_FAULT_BASE, self.params.fault_base)

    def charge_fault_spurious(self):
        """A fault that needed no real work (TLB-stale, reuse)."""
        self.charge(FN_FAULT_BASE, self.params.fault_spurious)

    def charge_page_alloc(self, n_pages=1):
        """Buddy allocation of ``n_pages`` data frames."""
        self.charge(FN_PTE_ALLOC, self.params.page_alloc * n_pages)

    def charge_page_copy_4k(self, n_pages=1, warm=False):
        """COW copies of ``n_pages`` 4 KiB pages (``warm`` discounts)."""
        ns = self.params.page_copy_4k * n_pages
        if warm:
            ns *= self.params.odf_cow_warmth
        self.charge(FN_PAGE_COPY, ns)

    def charge_page_zero(self, n_pages=1):
        """Zeroing ``n_pages`` on demand-zero faults."""
        self.charge(FN_PAGE_ZERO, self.params.page_zero_4k * n_pages)

    def charge_bulk_copy(self, n_bytes):
        """Streaming copy of ``n_bytes`` (huge-page COW, collapse)."""
        self.charge(FN_BULK_COPY, self.params.bulk_copy_per_byte * n_bytes)

    def charge_table_cow_copy(self, n_present):
        """Fault-time copy of a shared PTE table (the paper's mechanism)."""
        self.charge_pte_table_alloc()
        self.charge(FN_TABLE_COPY, 0.0)  # attribution anchor, cost below
        self.charge_copy_pte_entries(n_present)

    def charge_pt_unshare_flip(self):
        """The sole-owner PMD write-bit flip (§3.4)."""
        self.charge(FN_PT_UNSHARE, self.params.pt_unshare_flip)

    def charge_tlb_flush(self, n_pages=1):
        """TLB invalidation for ``n_pages`` (range or single)."""
        p = self.params
        self.charge(FN_TLB_FLUSH, p.tlb_flush + p.tlb_flush_per_page * max(0, n_pages - 1))

    # ---- teardown ----------------------------------------------------------

    def charge_zap_entries(self, n_entries):
        """zap_pte_range work over ``n_entries`` present entries."""
        if n_entries > 0:
            self.charge(FN_ZAP_PTE, self.params.zap_per_pte * n_entries)

    def charge_table_free(self, n_tables=1):
        """Freeing ``n_tables`` table frames."""
        self.charge(FN_TABLE_FREE, self.params.table_free * n_tables)

    # ---- syscalls / user memory ---------------------------------------------

    def charge_syscall(self):
        """Fixed syscall entry/exit cost (mmap family)."""
        self.charge(FN_SYSCALL, self.params.syscall_fixed)

    def charge_memcpy(self, n_bytes, is_write):
        """User-level copy bandwidth for ``n_bytes``."""
        p = self.params
        per = p.memcpy_write_per_byte if is_write else p.memcpy_read_per_byte
        self.charge(FN_MEMCPY, per * n_bytes)

    def charge_page_cache_lookup(self, n=1):
        """Page-cache radix lookups."""
        self.charge(FN_PAGE_CACHE, self.params.page_cache_lookup * n)

    # ---- reclaim / swap ------------------------------------------------------

    def charge_swap_out(self, n_pages=1):
        """Write-out of ``n_pages`` to the swap device."""
        self.charge(FN_SWAP_OUT, self.params.swap_out_4k * n_pages)

    def charge_swap_in(self, n_pages=1):
        """Read-back of ``n_pages`` from the swap device."""
        self.charge(FN_SWAP_IN, self.params.swap_in_4k * n_pages)

    def charge_swap_cache_lookup(self, n=1):
        """Swap-cache lookups on swap-in faults."""
        self.charge(FN_SWAP_CACHE, self.params.swap_cache_lookup * n)

    def charge_lru_scan(self, n_pages=1):
        """LRU shrink-loop work per page examined."""
        self.charge(FN_LRU_SCAN, self.params.lru_scan_per_page * n_pages)

    def charge_rmap_unmap(self, n_entries):
        """try_to_unmap work over ``n_entries`` PTEs."""
        if n_entries > 0:
            self.charge(FN_RMAP_UNMAP, self.params.rmap_unmap_per_entry * n_entries)

    def charge_shared_table_unmap(self):
        """The unmap-in-place edit of one fork-shared PTE table."""
        self.charge(FN_SHARED_UNMAP, self.params.shared_table_unmap)

    def charge_direct_reclaim(self):
        """Fixed entry cost of a foreground (direct) reclaim pass."""
        self.charge(FN_DIRECT_RECLAIM, self.params.direct_reclaim_fixed)

    # ---- SMP: locking and IPIs ----------------------------------------------

    def charge_mmap_lock(self):
        """Uncontended mmap_lock (rwsem) acquire fast path."""
        self.charge(FN_MMAP_LOCK, self.params.mmap_lock_acquire)

    def charge_pt_lock(self):
        """Split page-table spinlock acquire fast path."""
        self.charge(FN_PT_LOCK, self.params.pt_lock_acquire)

    def charge_lock_wakeup(self):
        """Queue handoff charged to a waiter when a contended lock is granted."""
        self.charge(FN_LOCK_WAKEUP, self.params.lock_contended_wakeup)

    def charge_ipi_send(self, n_targets):
        """Sender-side cost of a TLB shootdown IPI to ``n_targets`` vCPUs."""
        if n_targets > 0:
            p = self.params
            self.charge(FN_IPI, p.ipi_send_fixed + p.ipi_send_per_cpu * n_targets)

    def charge_ipi_handle(self):
        """Remote-side cost of receiving one shootdown IPI (flush + ack)."""
        self.charge(FN_IPI, self.params.ipi_handle)

    def charge_ctx_switch(self):
        """Switching the running task on a vCPU runqueue."""
        self.charge(FN_CTX_SWITCH, self.params.ctx_switch)

    # ---- NUMA topology / Mitosis replication --------------------------------

    def charge_numa_access(self, factor, n_pages=1):
        """Distance penalty for touching ``n_pages`` of remote data."""
        if factor > 0 and n_pages > 0:
            self.charge(FN_NUMA_ACCESS,
                        self.params.numa_remote_access * factor * n_pages)

    def charge_numa_walk(self, total_factor):
        """Distance penalty for one page walk's remote table touches.

        ``total_factor`` is the sum of per-level distance factors along
        the walk (0 for an all-local — or replicated — walk).
        """
        if total_factor > 0:
            self.charge(FN_NUMA_WALK,
                        self.params.numa_remote_walk_per_level * total_factor)

    def charge_replica_sync(self, n_replicas, n_entries=1):
        """Mitosis write fan-out: update every replica's copy of entries."""
        if n_replicas > 0 and n_entries > 0:
            self.charge(FN_REPLICA_SYNC,
                        self.params.mitosis_replica_write
                        * n_replicas * n_entries)

    def charge_replica_alloc(self, n_frames=1):
        """Allocation of ``n_frames`` node-local replica table frames."""
        self.charge(FN_REPLICA_ALLOC,
                    self.params.mitosis_replica_alloc * n_frames)

    def charge_replica_collapse(self, n_replicas):
        """Freeing ``n_replicas`` replica frames (collapse-to-shared)."""
        if n_replicas > 0:
            self.charge(FN_REPLICA_COLLAPSE,
                        self.params.mitosis_collapse_per_replica * n_replicas)

    def charge_migrate_pages(self, n_pages, factor=1.0):
        """migrate_pages: cross-node copy + remap of ``n_pages``."""
        if n_pages > 0:
            self.charge(FN_MIGRATE,
                        self.params.numa_migrate_per_page
                        * n_pages * max(factor, 0.5))

    def charge_ipi_cross_node(self, n_remote_nodes):
        """Interconnect-hop surcharge for a shootdown spanning nodes."""
        if n_remote_nodes > 0:
            self.charge(FN_IPI,
                        self.params.ipi_cross_node_extra * n_remote_nodes)


class _SuspendCharges:
    """Re-entrant suspension of cost charging (see CostModel.background)."""

    def __init__(self, model):
        self._model = model
        self._previous = None

    def __enter__(self):
        self._previous = self._model.suspended
        self._model.suspended = True
        return self._model

    def __exit__(self, exc_type, exc, tb):
        self._model.suspended = self._previous
        return False
