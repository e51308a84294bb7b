"""The kernel facade: syscalls, task lifecycle, and user memory access.

Everything an application (simulated process) can do goes through here:
``mmap``/``munmap``/``mremap``/``mprotect``, both fork flavours, exit/wait,
and byte-level loads and stores that translate through the TLB + software
MMU and take page faults exactly where real accesses would.

The two fork entry points match the paper's deployment story (§4):
``sys_fork`` is the classic call, ``sys_odfork`` the new opt-in syscall,
and a per-process procfs-style flag (``Task.odfork_default``) transparently
reroutes plain ``fork`` for unmodified applications.
"""

from __future__ import annotations
from ..sancheck.annotations import (
    acquires,
    charge_deferred,
    must_hold,
    tlb_deferred,
)

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import (
    InvalidArgumentError,
    KernelBug,
    OutOfMemoryError,
    ProcessError,
)
from ..mem.buddy import OutOfFramesError
from ..mem.page import HUGE_PAGE_ORDER, HUGE_PAGE_SIZE, PAGE_SIZE, add_at
from ..paging.entries import entry_pfn, swap_mask
from ..paging.store import EntryStore
from ..paging.table import (
    PMD_REGION_SIZE,
    VA_LIMIT,
    page_align_up,
    page_offset,
)
from ..paging.walk import MMUFault, Walker
from ..trace import points
from .failpoints import FailPoints
from .fault import FaultHandler, fault_walk
from .filesystem import SimFS
from .fastpath import fast_copy_mm_classic
from .fork import copy_mm_classic
from .mm import MMStruct
from .odfork import copy_mm_odf
from .pagecache import PageCache
from .task import STATE_DEAD, STATE_ZOMBIE, Task
from .teardown import zap_range
from .vma import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_HUGETLB,
    MAP_POPULATE,
    MAP_PRIVATE,
    MAP_SHARED,
    PROT_READ,
    PROT_WRITE,
    VMA,
)


MADV_DONTNEED = 4
MADV_HUGEPAGE = 14
MADV_NOHUGEPAGE = 15


def _require_granules(vmas, start, end, syscall):
    """Refuse a page-aligned range that cuts a hugetlb page of ``vmas``."""
    for vma in vmas:
        if vma.is_hugetlb and (max(vma.start, start)
                               | min(vma.end, end)) % HUGE_PAGE_SIZE:
            raise InvalidArgumentError(f"{syscall} range misaligned for mapping")


@dataclass
class VMStats:
    """Kernel-wide event counters (the model's /proc/vmstat)."""

    forks: int = 0
    odforks: int = 0
    page_faults: int = 0
    spurious_faults: int = 0
    demand_zero_faults: int = 0
    file_faults: int = 0
    cow_faults: int = 0
    cow_reuse: int = 0
    huge_faults: int = 0
    huge_cow_faults: int = 0
    table_cow_copies: int = 0
    table_unshares: int = 0
    tables_shared: int = 0
    oom_reclaims: int = 0
    thp_collapses: int = 0
    thp_splits: int = 0
    snapshots_created: int = 0
    snapshot_restores: int = 0
    # -- reclaim / swap (zero unless the machine has a swap device) -------
    pgscan: int = 0
    pgsteal: int = 0
    pgsteal_kswapd: int = 0
    pgsteal_direct: int = 0
    pswpin: int = 0
    pswpout: int = 0
    swap_cache_hits: int = 0
    kswapd_wakeups: int = 0
    direct_reclaims: int = 0
    shared_table_unmaps: int = 0
    # -- SMP / TLB coherence (zero unless remote CPU views existed) -------
    tlb_shootdowns: int = 0
    ipis_sent: int = 0
    # -- NUMA / Mitosis (zero unless Machine(numa=...)) -------------------
    numa_remote_accesses: int = 0
    pages_migrated: int = 0
    replica_allocs: int = 0
    replica_syncs: int = 0
    replica_collapses: int = 0
    replica_fallbacks: int = 0

    def snapshot(self):
        """A plain-dict copy of all counters."""
        return dict(self.__dict__)


class Kernel:
    """Owns every machine-wide subsystem and exposes the syscall surface."""

    def __init__(self, clock, cost, allocator, pages, phys, swap=None,
                 numa=None):
        self.clock = clock
        self.cost = cost
        self.allocator = allocator
        self.pages = pages
        self.phys = phys
        self.fs = SimFS()
        # Fail-point injection (inert unless a verify harness enables it).
        # Created first: the page cache and the mm layer thread their
        # allocation sites through it.
        self.failpoints = FailPoints()
        self.page_cache = PageCache(allocator, pages, phys,
                                    failpoints=self.failpoints)
        self.stats = VMStats()
        self._tables = {}
        # Packed backing storage for every page-table entry array on this
        # machine (one row per table); see repro.paging.store.
        self.entry_store = EntryStore()
        self.walker = Walker(self.resolve_table)
        self.fault_handler = FaultHandler(self)
        self.tasks = {}
        self._next_pid = 1
        self.init_task = None
        # khugepaged is created lazily (imports thp on first use) and
        # driven explicitly via Machine.run_khugepaged / direct calls.
        self._khugepaged = None
        # Live in-place snapshots (they hold page references; see
        # kernel/snapshot.py and the test auditor).
        self.live_snapshots = []
        # The reclaim/swap subsystem exists only when a swap device is
        # configured; without one every hook below is None and the kernel
        # behaves exactly as it did before the subsystem existed.
        self.swap = swap
        if swap is not None:
            from ..mem.swap import SwapCache
            from .reclaim import ReclaimState
            from .rmap import RmapState
            self.swap_cache = SwapCache()
            self.rmap = RmapState(pages.n_frames)
            self.reclaim = ReclaimState(self)
        else:
            self.swap_cache = None
            self.rmap = None
            self.reclaim = None
        # The SMP scheduler (Machine(smp=N)) plugs itself in here; the
        # shootdown engine routes every TLB invalidation through it.
        self.smp = None
        # The KCSAN race sampler (Machine(sanitize="kcsan")) plugs in
        # here; san_access() is the instrumentation entry point.
        self.san = None
        # NUMA topology (Machine(numa=NumaTopology(...))): the per-node
        # zones live in the allocator; the kernel keeps the topology, the
        # "executing node" notion allocation policies key off, and — when
        # the topology asks for it — the Mitosis replica registry.
        self.numa = numa
        self._pinned_node = None
        if numa is not None and numa.replicate:
            from ..numa.replication import MitosisState
            self.mitosis = MitosisState(self, numa)
        else:
            self.mitosis = None
        from ..paging.tlb import ShootdownEngine
        self.tlbs = ShootdownEngine(self)
        # Master switch for the analytic fast paths (repro.kernel.fastpath).
        # fast_path_ok() combines it with the per-run observer checks;
        # Machine(fastpath=False) or REPRO_NO_FASTPATH=1 forces the
        # per-event walks everywhere.
        self.fastpath = True
        #: Fast-path engagement counters (``<op>_engaged``,
        #: ``<op>_bailed.<reason>``), the ``fastpath`` metrics namespace.
        self.fastpath_counts = Counter()

    def san_access(self, kind, key, write=True):
        """KCSAN instrumentation hook: record a kernel access to a word.

        ``kind`` names the word class ("pt" for leaf-table entries,
        "pageref" for struct-page refcounts), ``key`` identifies the word
        (a table or data pfn).  A no-op unless a sanitizer is attached
        and a scheduled task is running.
        """
        san = self.san
        if san is not None and self.smp is not None:
            san.access(kind, key, write)

    # ---- page-table registry (the model's page_address map) -------------

    def register_table(self, table):
        """Record a table frame in the pfn -> table map."""
        if table.pfn in self._tables:
            raise KernelBug(f"table frame {table.pfn} registered twice")
        self._tables[table.pfn] = table

    def unregister_table(self, tables):
        """Drop table frames from the pfn -> table map and hand their
        packed rows back to the entry store in one batch."""
        registry = self._tables
        rows = []
        for table in tables:
            if registry.pop(table.pfn, None) is None:
                raise KernelBug(f"table frame {table.pfn} not registered")
            rows.append(table.detach_row())
        self.entry_store.release(rows)

    def resolve_table(self, pfn):
        """The PageTable object backing a table frame."""
        try:
            return self._tables[pfn]
        except KeyError:
            raise KernelBug(f"no page table at pfn {pfn}") from None

    def resolve_tables(self, pfns):
        """The PageTable objects backing the table frames ``pfns`` (a
        list), in order: one registry call for a whole PMD table's
        leaves."""
        try:
            return list(map(self._tables.__getitem__, pfns))
        except KeyError as exc:
            raise KernelBug(f"no page table at pfn {exc.args[0]}") from None

    @property
    def live_tables(self):
        """Number of registered table frames machine-wide."""
        return len(self._tables)

    # ---- NUMA placement --------------------------------------------------

    def current_node(self):
        """The node the executing CPU lives on (the first-touch home).

        A :meth:`pin_to_node` context wins; otherwise the scheduled
        vCPU's home node; node 0 outside an SMP run or without NUMA.
        """
        if self.numa is None:
            return 0
        if self._pinned_node is not None:
            return self._pinned_node
        smp = self.smp
        if smp is not None and smp.running and smp.current is not None:
            return smp.current.vcpu.node
        return 0

    @contextmanager
    def pin_to_node(self, node):
        """Run the body as if executing on ``node`` (bench harnesses)."""
        if self.numa is not None and not 0 <= node < self.numa.nodes:
            raise InvalidArgumentError(f"no such NUMA node {node}")
        prev = self._pinned_node
        self._pinned_node = int(node)
        try:
            yield
        finally:
            self._pinned_node = prev

    def _alloc_one(self, order, node, strict=False):
        """One allocator call, flat or NUMA-aware as configured."""
        if self.numa is None:
            return self.allocator.alloc(order)
        return self.allocator.alloc(order, node=node, strict=strict)

    def _alloc_node(self, mm):
        """``(node, strict)`` for a single data-frame allocation by ``mm``.

        Applies the mm's mempolicy (first-touch when unset) and exercises
        the ``numa.node_alloc`` failpoint, the injection site for per-node
        allocation failure.  ``(None, False)`` without a NUMA topology.
        """
        if self.numa is None:
            return None, False
        self.failpoints.hit("numa.node_alloc")
        policy = mm.mempolicy
        if policy is None:
            return self.current_node(), False
        node, strict, _ = policy.pick(mm, self.current_node())
        return node, strict

    @must_hold("mmap_lock")
    def note_table_write(self, table, n_entries=1):
        """Mitosis coherence hook: ``table``'s entries were mutated."""
        if self.mitosis is not None:
            self.mitosis.fanout_write(table, n_entries)

    def _charge_remote_access(self, factor, target_node, n_pages=1):
        """Book a cross-node data access (cost + counter + tracepoint)."""
        self.cost.charge_numa_access(factor, n_pages)
        self.stats.numa_remote_accesses += n_pages
        if points.enabled:
            points.tracepoint("numa.remote_access", node=self.current_node(),
                              target_node=target_node, factor=factor)

    def charge_numa_copy(self, src_pfn, n_pages=1):
        """Cross-node penalty of copying data *from* ``src_pfn``.

        COW and migration copy sites call this so reading a remote source
        frame costs what the distance matrix says it should.
        """
        numa = self.numa
        if numa is None:
            return
        target = self.allocator.node_of(src_pfn)
        factor = numa.factor(self.current_node(), target)
        if factor > 0.0:
            self._charge_remote_access(factor, target, n_pages)

    def _charge_numa_walk(self, mm, data_pfn):
        """Distance-weight the walk just performed plus the data access.

        Each visited table frame on a remote node adds its distance
        factor — unless the mm is *entitled* to that table's Mitosis
        replicas, in which case the walk level is node-local by
        construction and costs nothing extra.  The data page itself is
        never replicated, so its remote penalty always applies.
        """
        numa = self.numa
        node = self.current_node()
        node_of = self.allocator.node_of
        mitosis = self.mitosis
        walk_factor = 0.0
        for table_pfn in self.walker.path:
            if mitosis is not None and mitosis.entitled(mm, table_pfn):
                continue
            walk_factor += numa.factor(node, node_of(table_pfn))
        if walk_factor > 0.0:
            self.cost.charge_numa_walk(walk_factor)
        target = node_of(data_pfn)
        factor = numa.factor(node, target)
        if factor > 0.0:
            self._charge_remote_access(factor, target)

    # ---- frame allocation with reclaim ------------------------------------

    def _maybe_wake_kswapd(self, n_frames=1):
        """Wake background reclaim when the pending allocation of
        ``n_frames`` would push free memory below the low watermark."""
        r = self.reclaim
        if r is None or r.running:
            return
        if self.allocator.free_frames - n_frames >= r.wm_low:
            return
        self.wake_kswapd(nr_extra=n_frames)

    def wake_kswapd(self, nr_extra=0):
        """One kswapd pass: reclaim to the high watermark, off the clock.

        Background reclaim runs on its own kernel thread, so its work is
        not charged to the foreground task.  Returns frames freed.
        """
        r = self.reclaim
        if r is None or r.running:
            return 0
        self.stats.kswapd_wakeups += 1
        if points.enabled:
            points.tracepoint("reclaim.kswapd_wake",
                              free_frames=self.allocator.free_frames,
                              nr_extra=nr_extra)
        r.running = True
        try:
            with self.cost.background():
                return r.balance(nr_extra)
        finally:
            r.running = False

    def _emergency_reclaim(self, n_frames):
        """Direct (foreground) reclaim: the last resort before OOM.

        Drops clean page cache first, then — when a swap device exists —
        runs the shrink loop synchronously, charged to the faulting task.
        Returns the number of frames freed.
        """
        freed = self.page_cache.reclaim_clean(n_frames)
        r = self.reclaim
        if r is not None and freed < n_frames and not r.running:
            self.stats.direct_reclaims += 1
            self.cost.charge_direct_reclaim()
            r.running = True
            try:
                freed += r.shrink(n_frames - freed, from_kswapd=False)
            finally:
                r.running = False
        if freed:
            self.stats.oom_reclaims += 1
        return freed

    def _alloc_reclaiming(self, n_reclaim, message, alloc, *args):
        """``alloc(*args)``, retried once after direct reclaim.

        Every frame allocation ends in this sequence once its caller has
        woken kswapd and picked the placement: try, on failure reclaim
        ``n_reclaim`` frames and try again with the same placement, then
        raise ``OutOfMemoryError(message)``, where ``{free}`` is the
        free-frame count at that point.  A retry after a partial reclaim
        can still fail; it surfaces as that OOM, never as a raw allocator
        error.
        """
        try:
            return alloc(*args)
        except OutOfFramesError:
            if self._emergency_reclaim(n_reclaim):
                try:
                    return alloc(*args)
                except OutOfFramesError:
                    pass
            raise OutOfMemoryError(
                message.format(free=self.allocator.free_frames)) from None

    def alloc_data_frame(self, mm):
        """One frame for user data, reclaiming under pressure."""
        self._maybe_wake_kswapd()
        node, strict = self._alloc_node(mm)
        return int(self._alloc_reclaiming(
            64, "out of memory: {free} frames free",
            self._alloc_one, 0, node, strict))

    def alloc_data_frames_bulk(self, mm, n):
        """Bulk frame allocation with reclaim-on-pressure."""
        self._maybe_wake_kswapd(n)
        if self.numa is None:
            node, interleave = None, False
        else:
            self.failpoints.hit("numa.node_alloc")
            policy = mm.mempolicy
            if policy is None:
                node, interleave = self.current_node(), False
            else:
                node, _, interleave = policy.pick_bulk(mm, self.current_node())
        return self._alloc_reclaiming(
            n, f"out of memory allocating {n} frames",
            self._alloc_bulk, n, node, interleave)

    def _alloc_bulk(self, n, node, interleave):
        if self.numa is None:
            return self.allocator.alloc_bulk(n)
        return self.allocator.alloc_bulk(n, node=node, interleave=interleave)

    def alloc_huge_frame(self, mm):
        """One 2 MiB compound block with reclaim-on-pressure."""
        self._maybe_wake_kswapd(1 << HUGE_PAGE_ORDER)
        node, strict = self._alloc_node(mm)
        return int(self._alloc_reclaiming(
            1 << HUGE_PAGE_ORDER, "out of memory allocating a huge page",
            self._alloc_one, HUGE_PAGE_ORDER, node, strict))

    def alloc_table_frame(self):
        """One frame for a page-table node, reclaiming under pressure.

        Tables are placed first-touch on the executing node — the Mitosis
        premise: a process that faults its tree in from one node leaves
        every other node walking remote table frames.
        """
        self._maybe_wake_kswapd()
        node = self.current_node() if self.numa is not None else None
        return int(self._alloc_reclaiming(
            64, "out of memory allocating a page table",
            self._alloc_one, 0, node))

    @charge_deferred("compound teardown is priced by the zap/exit cost "
                     "models at the call site")
    def free_huge_frame(self, head):
        """Free a compound block and its contents."""
        self.pages.on_free(head)
        self.phys.zero_range(head, 1 << HUGE_PAGE_ORDER)
        self.allocator.free(head, HUGE_PAGE_ORDER)

    # ---- swap-slot reference counting --------------------------------------
    #
    # Swap slots follow the same ownership rule data pages do: one slot
    # reference per PageTable *object* holding a swap entry for it, plus
    # one per snapshot that saved such an entry.  The swap cache's frame
    # holds a *page* reference, not a slot reference; the cache entry is
    # dropped when the slot's last reference goes.

    def swap_dup(self, slot, n=1):
        """Take ``n`` references on a swap slot (entry copied/installed)."""
        self.swap.swap_map[slot] += n

    def swap_put(self, slot, n=1):
        """Drop ``n`` references on a swap slot, releasing it at zero."""
        swap_map = self.swap.swap_map
        remaining = swap_map.item(slot) - n
        if remaining < 0:
            raise KernelBug(f"swap_map underflow on slot {slot}")
        swap_map[slot] = remaining
        if remaining == 0:
            self.release_swap_slot(slot)

    def release_swap_slot(self, slot):
        """A slot's last reference went: drop its cache entry, free it."""
        pfn = self.swap_cache.remove_slot(slot)
        if pfn is not None:
            # The cache's page reference goes with the slot.
            if self.pages.ref_dec(pfn) == 0:
                from .rmap import free_one_anon_frame
                # sancheck: ignore[clock-charge] -- dropping the swap cache's last page rides the fault/zap cost models at the swap_put call sites
                free_one_anon_frame(self, pfn)
        self.swap.release_slot(slot)

    def swap_dup_entries(self, entries):
        """swap_dup for every swap entry in a table array (fork, table COW)."""
        if self.swap is None:
            return
        mask = swap_mask(entries)
        if not mask.any():
            return
        slots = entry_pfn(entries[mask]).astype(np.int64)
        add_at(self.swap.swap_map, slots, 1)

    def swap_put_entries(self, entries):
        """swap_put for every swap entry in a table array (zap, teardown).

        One vectorised decrement (:meth:`swap_put_rows`); the few slots
        that reach zero are then released one by one in entry order.
        """
        if self.swap is None:
            return
        for slot in self.swap_put_rows(entries.reshape(1, -1))[0]:
            self.release_swap_slot(slot)

    def swap_put_rows(self, rows):
        """Drop the slot reference of every swap entry in ``rows`` (one
        table array per row) in one vectorised pass, releasing nothing.

        Returns one list per row: the slots whose last reference that
        row held, ordered by that entry.  A slot listed twice reaches
        zero at its last entry, which is where a per-entry loop would
        release it, so releasing the lists row by row with
        :meth:`release_swap_slot` does what one :meth:`swap_put_entries`
        call per row, in row order, does.
        """
        released = [[] for _ in range(len(rows))]
        mask = swap_mask(rows)
        if not mask.any():
            return released
        row_of = np.nonzero(mask)[0]
        slots = entry_pfn(rows[mask]).astype(np.int64)
        swap_map = self.swap.swap_map
        add_at(swap_map, slots, -1)
        left = swap_map[slots]
        if (left < 0).any():
            raise KernelBug(
                f"swap_map underflow on slot {int(slots[left < 0][0])}")
        done = np.flatnonzero(left == 0)
        if len(done) > 1:
            last = len(done) - 1 - np.unique(slots[done[::-1]],
                                             return_index=True)[1]
            done = done[np.sort(last)]
        for row, slot in zip(row_of[done].tolist(), slots[done].tolist()):
            released[row].append(slot)
        return released

    # ---- task lifecycle -----------------------------------------------------

    def create_init_task(self, name="init"):
        """The machine's first task (pid 1)."""
        if self.init_task is not None:
            raise ProcessError("init task already exists")
        task = self._new_task(parent=None, name=name)
        self.init_task = task
        return task

    def _new_task(self, parent, name):
        pid = self._next_pid
        self._next_pid += 1
        mm = MMStruct(self, owner_pid=pid)
        task = Task(pid, mm, parent=parent, name=name)
        self.tasks[pid] = task
        if parent is not None:
            parent.adopt(task)
        return task

    def sys_fork(self, task, name=None):
        """Classic fork — unless the caller's procfs flag reroutes it."""
        if task.odfork_default:
            return self.sys_odfork(task, name=name)
        return self._do_fork(task, use_odf=False, name=name)

    def sys_odfork(self, task, name=None):
        """The paper's new system call: share last-level page tables."""
        return self._do_fork(task, use_odf=True, name=name)

    def _fork_child(self, parent, name=None):
        """The task a fork creates, before its address space is copied.

        Shared by the syscall and the SMP fork flow: the child inherits
        the procfs odfork flag and, as on Linux, the mempolicy.
        """
        child = self._new_task(parent=parent,
                               name=name or f"{parent.name}-child")
        child.odfork_default = parent.odfork_default
        if parent.mm.mempolicy is not None:
            child.mm.mempolicy = parent.mm.mempolicy.clone()
        return child

    @acquires("mmap_lock")
    def _do_fork(self, task, use_odf, name):
        task.require_alive()
        start_ns = self.clock.now_ns
        child = self._fork_child(task, name)
        try:
            if use_odf:
                copy_mm_odf(self, task.mm, child.mm)
            elif not fast_copy_mm_classic(self, task.mm, child.mm):
                copy_mm_classic(self, task.mm, child.mm)
        except OutOfMemoryError:
            self._abort_fork(task, child)
            raise
        noise = self.cost.noise
        if noise is not None and not self.cost.suspended:
            # Correlated per-invocation overrun (see NoiseModel docs).
            self.clock.advance((self.clock.now_ns - start_ns) * noise.syscall_jitter())
        task.last_fork_ns = self.clock.now_ns - start_ns
        if points.enabled:
            points.tracepoint("fork.invoke", dur_ns=task.last_fork_ns,
                              pid=task.pid, child_pid=child.pid, odf=use_odf)
        return child

    def _abort_fork(self, parent, child):
        """Unwind a fork whose address-space copy ran out of memory.

        The half-built child mm is torn down like an exiting task's (that
        path already handles shared tables, swap entries, and rmap), the
        child task is unlinked, and the parent gets a TLB shootdown: the
        copy may already have write-protected some of its entries, and a
        CPU caching stale writable translations would skip the COW or
        sole-owner faults those protections exist to force.
        """
        from .teardown import exit_mmap
        exit_mmap(self, child.mm)
        parent.children.remove(child)
        del self.tasks[child.pid]
        child.state = STATE_DEAD
        self.tlbs.shootdown_mm(parent.mm, charge=False)

    def sys_exit(self, task, exit_code=0):
        """Terminate a task: tear down (or release) its mm, zombify."""
        task.require_alive()
        from .exec import on_task_exit
        on_task_exit(self, task)
        task.state = STATE_ZOMBIE
        task.exit_code = exit_code
        # Orphans are reparented to init, as on Unix.
        for child in task.children:
            child.parent = self.init_task
            if self.init_task is not None and self.init_task is not task:
                self.init_task.adopt(child)
        task.children = []

    def sys_wait(self, task, pid=None):
        """Reap one zombie child; returns ``(pid, exit_code)`` or ``None``."""
        task.require_alive()
        child = task.reap_ready_child(pid)
        if child is None:
            if pid is not None and all(c.pid != pid for c in task.children):
                raise ProcessError(f"pid {pid} is not a child of {task.name}")
            return None
        child.state = STATE_DEAD
        task.children.remove(child)
        del self.tasks[child.pid]
        return child.pid, child.exit_code

    # ---- memory-mapping syscalls ------------------------------------------------

    def sys_mmap(self, task, length, prot, flags, file=None, offset=0,
                 addr=None, name=""):
        """Create a mapping; returns its start address."""
        task.require_alive()
        self.cost.charge_syscall()
        if length <= 0:
            raise InvalidArgumentError("mmap length must be positive")
        granule = HUGE_PAGE_SIZE if flags & MAP_HUGETLB else PAGE_SIZE
        size = (length + granule - 1) & ~(granule - 1)
        if offset % PAGE_SIZE:
            raise InvalidArgumentError("file offset must be page-aligned")

        if flags & MAP_SHARED and flags & MAP_ANONYMOUS and file is None:
            # Shared anonymous memory is shmem-backed, as in Linux.
            file = self.fs.make_shmem(size)
        mm = task.mm
        if addr is not None and flags & MAP_FIXED:
            if addr % granule:
                raise InvalidArgumentError("MAP_FIXED address misaligned")
            if not 0 <= addr <= VA_LIMIT - size:
                raise InvalidArgumentError(
                    "MAP_FIXED range outside the user address space")
            if mm.vmas.any_overlap(addr, addr + size):
                self.sys_munmap(task, addr, size, _charge=False)
        else:
            addr = mm.find_free_area(size, align=granule)

        vma = VMA(
            start=addr, end=addr + size, prot=prot, flags=flags,
            file=file, file_offset=offset, name=name,
        )
        mm.add_vma(vma)
        if flags & MAP_POPULATE:
            from .bulkops import populate_range
            populate_range(self, task, addr, size)
        return addr

    @acquires("mmap_lock")
    def sys_munmap(self, task, addr, length, _charge=True):
        """Unmap ``[addr, addr+length)``, splitting edge VMAs."""
        task.require_alive()
        if _charge:
            self.cost.charge_syscall()
        if addr % PAGE_SIZE or length <= 0:
            raise InvalidArgumentError("munmap address/length invalid")
        end = addr + page_align_up(length)
        mm = task.mm
        victims = mm.vmas.overlapping(addr, end)
        if not victims:
            return
        _require_granules(victims, addr, end, "munmap")
        # Split edge VMAs so the range covers whole VMAs, then zap while the
        # VMA geometry still describes the pages (table COW needs it).
        inside = mm.split_range(addr, end)
        zap_range(self, mm, addr, end)
        for vma in inside:
            mm.remove_vma(vma)

    @acquires("mmap_lock")
    def sys_mprotect(self, task, addr, length, prot):
        """Change protection; permission loss takes effect immediately.

        Adding write permission never touches PTEs — COW and write-notify
        faults upgrade pages lazily, as in Linux.  Removing it clears RW
        bits in place, including inside shared tables: dropping permission
        can only cause other sharers spurious (correct) faults, so unlike
        unmap this does not need a table copy.
        """
        task.require_alive()
        self.cost.charge_syscall()
        if addr % PAGE_SIZE or length <= 0:
            raise InvalidArgumentError("mprotect address/length invalid")
        end = addr + page_align_up(length)
        mm = task.mm
        pieces = mm.vmas.overlapping(addr, end)
        if not pieces:
            raise InvalidArgumentError("mprotect over unmapped range")
        for vma in mm.split_range(addr, end):
            losing_write = vma.writable and not prot & PROT_WRITE
            vma.prot = prot
            if losing_write:
                self._clear_write_bits(mm, vma.start, vma.end)
        # Permission downgrade: stale writable translations must go from
        # every CPU running this address space, not just the caller's.
        self.tlbs.shootdown_mm(mm, addr, end)

    @must_hold("mmap_lock")
    @acquires("ptl")
    @tlb_deferred("sys_mprotect shoots the range down after the walk")
    def _clear_write_bits(self, mm, start, end):
        from ..paging.entries import BIT_RW, is_huge
        drop = np.uint64(~BIT_RW)
        for pmd_table, pmd_index, slot_start, entry in mm.present_slots(start,
                                                                        end):
            lo = max(start, slot_start)
            hi = min(end, slot_start + PMD_REGION_SIZE)
            if is_huge(entry):
                # Only THP can be partial: hugetlb VMAs cover whole slots.
                if lo == slot_start and hi == slot_start + PMD_REGION_SIZE:
                    # sancheck: ignore[clock-charge] -- one PMD-entry write covers 2 MiB; mprotect prices per-PTE clears and the shootdown that follows
                    pmd_table.entries[pmd_index] = entry & drop
                    self.note_table_write(pmd_table)
                    continue
                # Partial protection change over a THP region: split so
                # the unaffected half keeps its permissions.
                from .thp import split_huge_entry
                leaf = split_huge_entry(self, mm, pmd_table, pmd_index,
                                        slot_start)
            else:
                leaf = mm.resolve(int(entry_pfn(entry)))
            lo_index = (lo - slot_start) // PAGE_SIZE
            hi_index = (hi - slot_start) // PAGE_SIZE
            leaf.entries[lo_index:hi_index] &= drop
            self.note_table_write(leaf, hi_index - lo_index)
            self.cost.charge_zap_entries(hi_index - lo_index)

    @acquires("mmap_lock")
    def sys_mremap(self, task, old_addr, old_size, new_size, may_move=True):
        """Resize (and possibly move) a mapping; returns the new address."""
        task.require_alive()
        self.cost.charge_syscall()
        if old_addr % PAGE_SIZE or old_size <= 0 or new_size <= 0:
            raise InvalidArgumentError("mremap arguments invalid")
        old_size = page_align_up(old_size)
        new_size = page_align_up(new_size)
        mm = task.mm
        old_end = old_addr + old_size
        vma = mm.vmas.find(old_addr)
        if vma is None or vma.start != old_addr or vma.end < old_end:
            raise InvalidArgumentError("mremap range is not a single mapping")
        if vma.is_hugetlb:
            raise InvalidArgumentError("mremap on hugetlb not supported")

        if new_size == old_size:
            return old_addr
        if new_size < old_size:
            # Shrink in place: unmap the tail (a §3.3 COW-on-unmap case
            # when the tail shares a PTE table with the surviving head).
            self.sys_munmap(task, old_addr + new_size, old_size - new_size,
                            _charge=False)
            return old_addr
        # Grow in place only from the VMA's end into a free gap ending in
        # the user half (Linux's vma_expandable); else move the old range
        # alone, leaving the rest of its VMA in place.
        new_end = old_addr + new_size
        if (old_end == vma.end and new_end <= VA_LIMIT
                and not mm.vmas.any_overlap(old_end, new_end)):
            mm.remove_vma(vma)
            mm.add_vma(vma.clone(end=new_end))
            return old_addr
        if not may_move:
            raise InvalidArgumentError("cannot grow in place and may_move=False")
        if old_end < vma.end:
            vma = mm.split_vma(vma, old_end)[0]
        from .mremap import move_mapping
        return move_mapping(self, mm, vma, new_size)

    def sys_vfork(self, task, name=None):
        """vfork: borrow the parent's mm, suspend the parent (§6.1)."""
        from .exec import sys_vfork
        return sys_vfork(self, task, name=name)

    def sys_clone_vm(self, task, name=None):
        """clone(CLONE_VM): share the address space outright (§6.1)."""
        from .exec import sys_clone_vm
        return sys_clone_vm(self, task, name=name)

    def sys_execve(self, task, binary, stack_bytes=None):
        """Replace the task's image with ``binary``."""
        from .exec import EXEC_STACK_BYTES, sys_execve
        return sys_execve(self, task, binary,
                          stack_bytes=stack_bytes or EXEC_STACK_BYTES)

    def sys_posix_spawn(self, task, binary, name=None):
        """posix_spawn: a child started from a fresh image (§6.1)."""
        from .exec import sys_posix_spawn
        return sys_posix_spawn(self, task, binary, name=name)

    def sys_brk(self, task, new_brk=None):
        """The program-break heap: query with ``None``, grow/shrink with an
        address.  Backed by one anonymous VMA managed like glibc's heap."""
        task.require_alive()
        mm = task.mm
        if getattr(mm, "brk_start", None) is None:
            mm.brk_start = mm.find_free_area(1 << 30)  # reserve a window
            mm.brk_end = mm.brk_start
        if new_brk is None:
            return mm.brk_end
        self.cost.charge_syscall()
        new_end = page_align_up(max(new_brk, mm.brk_start))
        if new_end > mm.brk_start + (1 << 30):
            raise InvalidArgumentError("brk beyond the heap window")
        if new_end > mm.brk_end:
            grown = VMA(start=mm.brk_end, end=new_end,
                        prot=PROT_READ | PROT_WRITE,
                        flags=MAP_PRIVATE | MAP_ANONYMOUS, name="heap")
            mm.add_vma(grown)
        elif new_end < mm.brk_end:
            self.sys_munmap(task, new_end, mm.brk_end - new_end,
                            _charge=False)
        mm.brk_end = new_end
        return mm.brk_end

    def proc_smaps(self, task):
        """The /proc/<pid>/smaps analogue: per-VMA residency breakdown."""
        from ..paging.entries import is_huge, present_mask
        mm = task.mm
        report = []
        for vma in mm.vmas:
            resident = 0
            for _pmd, _index, slot_start, entry in mm.present_slots(vma.start,
                                                                    vma.end):
                lo = max(vma.start, slot_start)
                hi = min(vma.end, slot_start + PMD_REGION_SIZE)
                if is_huge(entry):
                    resident += hi - lo
                    continue
                leaf = mm.resolve(int(entry_pfn(entry)))
                sub = leaf.entries[(lo - slot_start) // PAGE_SIZE:
                                   (hi - slot_start) // PAGE_SIZE]
                resident += int(present_mask(sub).sum()) * PAGE_SIZE
            report.append({
                "start": vma.start,
                "end": vma.end,
                "size_bytes": vma.size,
                "rss_bytes": resident,
                "name": vma.name or ("anon" if vma.is_anonymous else vma.file.name),
                "perms": ("r" if vma.readable else "-")
                         + ("w" if vma.writable else "-")
                         + ("s" if vma.is_shared else "p"),
            })
        return report

    def sys_snapshot(self, task):
        """Create an in-place snapshot of the task's address space (§6.1,
        the Xu et al. fork-less primitive)."""
        from .snapshot import Snapshot
        return Snapshot.create(self, task)

    def khugepaged(self, policy=None):
        """The THP promotion daemon (created on first use); a given
        ``policy`` replaces the daemon's."""
        from .thp import Khugepaged
        if self._khugepaged is None:
            self._khugepaged = Khugepaged(self)
        if policy is not None:
            self._khugepaged.set_policy(policy)
        return self._khugepaged

    @acquires("mmap_lock")
    def sys_madvise(self, task, addr, length, advice):
        """madvise: MADV_DONTNEED / MADV_HUGEPAGE / MADV_NOHUGEPAGE.

        DONTNEED zaps the range (next access demand-faults fresh state,
        the fuzzers' cheap reset); the THP advices toggle per-VMA
        eligibility for khugepaged (§2.3's opt-in default policy).
        """
        task.require_alive()
        self.cost.charge_syscall()
        if addr % PAGE_SIZE or length <= 0:
            raise InvalidArgumentError("madvise address/length invalid")
        end = addr + page_align_up(length)
        mm = task.mm
        vmas = mm.vmas.overlapping(addr, end)
        if not vmas:
            raise InvalidArgumentError("madvise over unmapped range")
        if advice == MADV_DONTNEED:
            _require_granules(vmas, addr, end, "madvise")
            zap_range(self, mm, addr, end)
            return
        if advice in (MADV_HUGEPAGE, MADV_NOHUGEPAGE):
            for vma in mm.split_range(addr, end):
                vma.thp_enabled = advice == MADV_HUGEPAGE
                vma.thp_disabled = advice == MADV_NOHUGEPAGE
            return
        raise InvalidArgumentError(f"unknown madvise advice {advice}")

    # ---- procfs-style configuration ----------------------------------------------

    def set_odfork_default(self, task, enabled):
        """The paper's procfs switch: reroute plain fork() for this task."""
        task.odfork_default = bool(enabled)

    # ---- NUMA syscalls ----------------------------------------------------

    def sys_set_mempolicy(self, task, mode, node=None):
        """set_mempolicy(2): the task's allocation policy from here on.

        ``mode`` is one of ``first-touch`` / ``interleave`` / ``bind``
        (``bind`` needs ``node``).  Existing pages stay where they are —
        use :meth:`sys_migrate_pages` to move them.
        """
        task.require_alive()
        if self.numa is None:
            raise InvalidArgumentError("machine has no NUMA topology")
        self.cost.charge_syscall()
        from ..numa.policy import MemPolicy
        policy = MemPolicy(mode, node)
        if policy.node is not None and not 0 <= policy.node < self.numa.nodes:
            raise InvalidArgumentError(f"no such NUMA node {policy.node}")
        task.mm.mempolicy = policy
        return policy

    @acquires("mmap_lock")
    def sys_migrate_pages(self, task, target_node):
        """migrate_pages(2): move the task's movable pages to one node.

        Moves exclusively-owned, present, 4 KiB anonymous and private-COW
        pages whose frame lives off ``target_node``.  Pages under a
        *shared* PTE table, huge pages, swap entries, and shared frames
        (page cache, fork-COW, snapshots) are skipped — exactly the pages
        a real ``migrate_pages`` fails with -EBUSY or would break COW
        semantics for.  Returns the number of pages moved.
        """
        task.require_alive()
        numa = self.numa
        if numa is None:
            raise InvalidArgumentError("machine has no NUMA topology")
        if not 0 <= target_node < numa.nodes:
            raise InvalidArgumentError(f"no such NUMA node {target_node}")
        self.cost.charge_syscall()
        from ..mem.page import PG_FILE
        from ..paging.entries import (
            BIT_DIRTY,
            is_writable as _is_writable,
            make_entry,
        )
        from .rmap import rmap_add, rmap_remove
        mm = task.mm
        node_of = self.allocator.node_of
        moved = 0
        for _pmd, _index, leaf in mm.leaf_tables():
            if len(leaf.sharers) > 1:
                continue     # fork-shared table: moving would edit sharers
            for pte_index in leaf.present_indices().tolist():
                entry = leaf.entries[pte_index]
                pfn = int(entry_pfn(entry))
                if node_of(pfn) == target_node:
                    continue
                if self.pages.get_ref(pfn) != 1:
                    continue # shared frame (cache / COW / snapshot): busy
                if self.pages.has_flags(pfn, PG_FILE):
                    continue # keep file pages with the page cache
                try:
                    self.failpoints.hit("numa.node_alloc")
                    new_pfn = int(self.allocator.alloc(0, node=target_node,
                                                       strict=True))
                except OutOfMemoryError:
                    break    # target node full: stop, keep what moved
                self.pages.on_alloc(new_pfn, int(self.pages.flags[pfn]))
                self.phys.copy_frame(pfn, new_pfn)
                self.charge_numa_copy(pfn, 1)
                rmap_remove(self, pfn)
                self.pages.on_free(pfn)
                self.phys.zero(pfn)
                self.allocator.free(pfn, 0)
                leaf.set(pte_index, make_entry(
                    new_pfn, writable=bool(_is_writable(entry)), user=True,
                    dirty=bool(entry & np.uint64(BIT_DIRTY)), accessed=True,
                ))
                rmap_add(self, new_pfn, leaf, pte_index)
                self.note_table_write(leaf)
                moved += 1
        if moved:
            self.cost.charge_migrate_pages(
                moved, numa.factor(self.current_node(), target_node))
            self.stats.pages_migrated += moved
            # Every moved page changed frames: the whole mm's cached
            # translations are suspect, as migrate_pages' unmap step is.
            self.tlbs.shootdown_mm(mm)
        if points.enabled:
            points.tracepoint("numa.migrate", pid=task.pid,
                              target_node=target_node, moved=moved,
                              node=target_node)
        return moved

    def proc_status(self, task):
        """The /proc/<pid>/status analogue."""
        mm = task.mm
        return {
            "pid": task.pid,
            "name": task.name,
            "state": task.state,
            "vm_size_bytes": 0 if mm.dead else mm.mapped_bytes(),
            "vm_rss_bytes": mm.rss_bytes,
            "nr_pte_tables": mm.nr_pte_tables,
            "odfork_enabled": task.odfork_default,
        }

    # ---- user memory access (byte path) ---------------------------------------------

    def active_tlb(self, mm):
        """The TLB view the executing CPU uses for ``mm``.

        Inside an SMP schedule this is the current vCPU's TLB (switched
        CR3-style to ``mm``); otherwise the per-mm TLB, as before.
        """
        smp = self.smp
        if smp is not None and smp.running and smp.current is not None:
            return smp.current.vcpu.tlb_for(mm)
        return mm.tlb

    def translate_access(self, task, addr, is_write):
        """The hardware half of one access: the executing CPU's TLB, then
        a walk that fills it.  The pfn, or ``None`` when the walk faults
        (:func:`~repro.kernel.fault.fault_walk` takes over from there)."""
        mm = task.mm
        tlb = self.active_tlb(mm)
        hit = tlb.lookup(addr, is_write)
        if hit is not None:
            return hit.pfn
        try:
            return self.fill_tlb(mm, tlb, addr, is_write)
        except MMUFault:
            return None

    def fill_tlb(self, mm, tlb, addr, is_write):
        """Walk ``addr`` and cache the translation in ``tlb``; the pfn.

        Raises ``MMUFault`` when the walk faults.  On a NUMA machine the
        walk and the data access are distance-weighted.
        """
        tr = self.walker.translate(mm.pgd, addr, is_write)
        tlb.insert(addr, tr.pfn, tr.writable)
        if self.numa is not None:
            self._charge_numa_walk(mm, tr.pfn)
        return tr.pfn

    @acquires("mmap_lock", "ptl")
    def _translate_for_access(self, task, addr, is_write):
        pfn = self.translate_access(task, addr, is_write)
        if pfn is not None:
            return pfn
        # No other CPU to lock out: run the fault loop straight through.
        walk = fault_walk(self, task, addr, is_write)
        while True:
            try:
                next(walk)
            except StopIteration as done:
                return done.value

    def mem_write(self, task, addr, data):
        """Store bytes into the task's address space (may fault/COW)."""
        task.require_alive()
        self.cost.charge_memcpy(len(data), is_write=True)
        pos = 0
        while pos < len(data):
            vaddr = addr + pos
            off = page_offset(vaddr)
            take = min(PAGE_SIZE - off, len(data) - pos)
            pfn = self._translate_for_access(task, vaddr, is_write=True)
            self.phys.write(pfn, off, data[pos:pos + take])
            pos += take

    def mem_touch(self, task, addr, length, is_write):
        """Access a small range without moving bytes.

        The fast path for application request loops (key-value stores,
        row operations): takes the same TLB/walk/fault path as real loads
        and stores, charges bandwidth, but never materialises host-side
        buffers.  Returns the number of pages traversed.
        """
        task.require_alive()
        if length <= 0:
            return 0
        self.cost.charge_memcpy(length, is_write)
        first = addr & ~(PAGE_SIZE - 1)
        last = addr + length - 1
        n_pages = ((last - first) // PAGE_SIZE) + 1
        translate = self._translate_for_access
        for i in range(n_pages):
            translate(task, first + i * PAGE_SIZE, is_write)
        return n_pages

    def mem_read(self, task, addr, length):
        """Load bytes from the task's address space (may fault)."""
        task.require_alive()
        self.cost.charge_memcpy(length, is_write=False)
        out = bytearray()
        pos = 0
        while pos < length:
            vaddr = addr + pos
            off = page_offset(vaddr)
            take = min(PAGE_SIZE - off, length - pos)
            pfn = self._translate_for_access(task, vaddr, is_write=False)
            out += self.phys.read(pfn, off, take)
            pos += take
        return bytes(out)
