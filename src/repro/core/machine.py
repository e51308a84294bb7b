"""The :class:`Machine`: one simulated host, fully assembled.

A Machine wires together every substrate — virtual clock, calibrated cost
model, noise, profiler, physical frames, buddy allocator, and the kernel —
and is the single entry point applications and benchmarks use.  The default
configuration models the paper's testbed (16-core EPYC 7302P; physical
memory is configurable because host-side numpy arrays scale with it).
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager

from ..analysis.profiler import Profiler
from ..errors import ConfigurationError
from ..kernel.fastpath import FASTPATH_ENGAGED
from ..kernel.kernel import Kernel
from ..mem.buddy import BuddyAllocator
from ..mem.page import PAGE_SIZE, PG_RESERVED, PageStructArray
from ..mem.physmem import PhysicalMemory
from ..timing.clock import SimClock
from ..timing.contention import contention_group
from ..timing.costs import CostModel, CostParams
from ..timing.noise import NoiseModel
from ..trace import points
from ..trace.metrics import MetricsRegistry
from .process import Process

MIB = 1024 * 1024
GIB = 1024 * MIB

#: The fast-path counters of the Machines built inside the open
#: :func:`fastpath_census` block, or ``None`` outside one.
_census = None


@contextmanager
def fastpath_census():
    """Add up the ``fastpath`` counters of every Machine built in the block.

    Yields a Counter that holds the totals, taken when the block exits
    (the benchmark harness reports one per experiment).
    """
    global _census
    outer, _census = _census, []
    total = Counter()
    try:
        yield total
    finally:
        for counts in _census:
            total.update(counts)
        _census = outer


class StatsView:
    """``machine.stats``: attribute access *and* the unified snapshot.

    Attribute reads/writes proxy to the kernel's ``VMStats`` (the
    historical ``machine.stats.page_faults`` shape every test and
    benchmark uses), while *calling* the view — ``machine.stats()`` —
    returns the metrics registry's full namespaced snapshot, counters
    from every subsystem flattened to ``{"ns.key": value}``.
    """

    __slots__ = ("_machine",)

    def __init__(self, machine):
        object.__setattr__(self, "_machine", machine)

    def __call__(self):
        return self._machine.metrics.snapshot()

    def __getattr__(self, name):
        return getattr(self._machine.kernel.stats, name)

    def __setattr__(self, name, value):
        setattr(self._machine.kernel.stats, name, value)

    def __repr__(self):
        return f"StatsView({self._machine.kernel.stats!r})"


class Machine:
    """A simulated host: hardware model + kernel + process table."""

    def __init__(self, phys_mb=4096, cost_params=None, noise_sigma=0.0,
                 seed=0, swap_mb=0, smp=None, sanitize=None, numa=None,
                 fastpath=True):
        if phys_mb <= 0:
            raise ConfigurationError("machine needs physical memory")
        n_frames = int(phys_mb) * MIB // PAGE_SIZE
        self.clock = SimClock()
        self.profiler = Profiler()
        noise = NoiseModel(seed=seed, sigma=noise_sigma) if noise_sigma > 0 else None
        self.cost = CostModel(
            clock=self.clock,
            params=cost_params or CostParams(),
            profiler=self.profiler,
            noise=noise,
        )
        # Opt-in NUMA topology: per-node buddy zones behind a facade with
        # the same surface as the flat allocator; distance costs, policies
        # and (optionally) Mitosis table replication hang off the kernel.
        self.numa = numa
        if numa is not None:
            from ..numa.zones import NumaAllocator
            self.allocator = NumaAllocator(n_frames, numa)
        else:
            self.allocator = BuddyAllocator(n_frames)
        self.pages = PageStructArray(n_frames)
        self.phys = PhysicalMemory(n_frames)
        self._reserve_frame_zero()
        swap = None
        if swap_mb:
            if swap_mb < 0:
                raise ConfigurationError("swap size cannot be negative")
            from ..mem.swap import SwapDevice
            swap = SwapDevice(int(swap_mb) * MIB // PAGE_SIZE)
        self.kernel = Kernel(self.clock, self.cost, self.allocator,
                             self.pages, self.phys, swap=swap, numa=numa)
        # The analytic fast paths (repro.kernel.fastpath) are semantically
        # invisible — repro.verify --equivalence holds them bit-identical
        # to the per-event walks — so they default on.  ``fastpath=False``
        # or REPRO_NO_FASTPATH=1 forces the per-event paths, which is how
        # the equivalence harness builds its reference machines.
        if os.environ.get("REPRO_NO_FASTPATH"):
            fastpath = False
        self.kernel.fastpath = bool(fastpath)
        if _census is not None:
            _census.append(self.kernel.fastpath_counts)
        # Opt-in SMP subsystem: ``smp=N`` attaches N virtual CPUs and the
        # deterministic cooperative scheduler; contention then emerges
        # from lock waits and IPIs instead of the fitted alpha fallback.
        self.smp = None
        if smp:
            if int(smp) < 1:
                raise ConfigurationError("smp needs at least one vCPU")
            from ..smp.sched import Scheduler
            self.smp = Scheduler(self, n_cpus=int(smp), seed=seed)
            self.kernel.smp = self.smp
        # Opt-in dynamic sanitizers (repro.sancheck): "kasan" poisons +
        # quarantines freed frames and catches UAF/double-free; "kcsan"
        # samples data races under the SMP scheduler; "all" enables both.
        self.kasan = None
        self.kcsan = None
        if sanitize is not None:
            if sanitize not in ("kasan", "kcsan", "all"):
                raise ConfigurationError(
                    f"sanitize must be 'kasan', 'kcsan' or 'all', "
                    f"got {sanitize!r}")
            if sanitize in ("kasan", "all"):
                from ..sancheck.kasan import KasanState
                self.kasan = KasanState(self.allocator, self.phys)
                self.allocator.sanitizer = self.kasan
                self.phys.sanitizer = self.kasan
            if sanitize in ("kcsan", "all"):
                if self.smp is None:
                    raise ConfigurationError(
                        "sanitize='kcsan' needs the SMP scheduler (smp=N)")
                from ..sancheck.kcsan import KcsanState
                self.kcsan = KcsanState(self.smp)
                self.kernel.san = self.kcsan
        self._init_process = None
        self._stats_view = StatsView(self)
        # The metrics registry (repro.trace.metrics): each subsystem
        # registers the one source that owns its counters; snapshot()
        # flattens them all into the namespaced ``machine.stats()`` view.
        self.metrics = MetricsRegistry()
        self.metrics.register("vm", self._vm_metrics)
        self.metrics.register("mem", self.memory_report)
        self.metrics.register("lock", self._lock_metrics)
        self.metrics.register("tlb", self._tlb_metrics)
        self.metrics.register("san", self._san_metrics)
        self.metrics.register("trace", self._trace_metrics)
        self.metrics.register("numa", self._numa_metrics)
        self.metrics.register("fastpath", self._fastpath_metrics)
        # A machine built while a tracer is attached binds to it, so
        # multi-machine benchmarks stamp events against the machine
        # currently under construction/measurement.
        tracer = points.current()
        if tracer is not None:
            tracer.bind(self)

    def _reserve_frame_zero(self):
        """Keep pfn 0 out of circulation so a zero pfn is always a bug."""
        pfn = self.allocator.alloc(0)
        if pfn != 0:
            raise ConfigurationError("expected the first allocation to be pfn 0")
        self.pages.on_alloc(0, PG_RESERVED)

    # ---- process management ------------------------------------------------

    @property
    def init_process(self):
        """The machine's init process (created on first use)."""
        if self._init_process is None:
            task = self.kernel.create_init_task()
            self._init_process = Process(self, task)
        return self._init_process

    def spawn_process(self, name):
        """A new top-level process, child of init."""
        init = self.init_process
        task = self.kernel._new_task(parent=init.task, name=name)
        return Process(self, task)

    # ---- measurement helpers --------------------------------------------------

    @property
    def now_ns(self):
        """Current virtual time in nanoseconds."""
        return self.clock.now_ns

    @property
    def stats(self):
        """Kernel counters — attributes proxy ``VMStats``; calling it
        (``machine.stats()``) returns the unified namespaced snapshot."""
        return self._stats_view

    def stopwatch(self):
        """A started stopwatch over the virtual clock."""
        return self.clock.stopwatch()

    def concurrency(self, n):
        """Context manager declaring ``n`` concurrent forking processes."""
        return contention_group(self.cost, n)

    def run_khugepaged(self, process, policy=None, max_promotions=None):
        """One khugepaged pass over a process (THP promotion, §2.3)."""
        daemon = self.kernel.khugepaged(policy=policy)
        return daemon.scan_mm(process.mm, max_promotions=max_promotions)

    def run_kswapd(self):
        """One kswapd balancing pass; returns frames freed (0 if no swap)."""
        if self.kernel.reclaim is None:
            return 0
        return self.kernel.wake_kswapd()

    def vmstat(self):
        """Kernel counters plus reclaim/swap gauges (/proc/vmstat-style).

        The same dict as the metrics registry's ``vm`` namespace — this
        is now a thin alias so no counter has two owners.
        """
        return self.metrics.collect("vm")

    # ---- metrics-registry sources (one owner per namespace) ----------------

    def _vm_metrics(self):
        """The ``vm`` namespace: VMStats plus reclaim/swap gauges."""
        stats = dict(vars(self.kernel.stats))
        stats["nr_free_pages"] = self.allocator.free_frames
        reclaim = self.kernel.reclaim
        if reclaim is not None:
            stats["nr_active_anon"] = len(reclaim.active)
            stats["nr_inactive_anon"] = len(reclaim.inactive)
            stats["watermark_min"] = reclaim.wm_min
            stats["watermark_low"] = reclaim.wm_low
            stats["watermark_high"] = reclaim.wm_high
            stats["swap_total_slots"] = len(self.kernel.swap)
            stats["swap_used_slots"] = self.kernel.swap.used_slots
            stats["swap_cache_pages"] = len(self.kernel.swap_cache)
        return stats

    def _lock_metrics(self):
        """The ``lock`` namespace: aggregated SMP lock/scheduler stats."""
        smp = self.smp
        if smp is None:
            return {}
        mmap_locks = list(smp._mmap_locks.values())
        pt_locks = list(smp._pt_locks.values())
        return {
            "waits": smp.lock_waits,
            "wait_ns": smp.lock_wait_ns,
            "mmap_contended": sum(l.contended_acquires for l in mmap_locks),
            "mmap_wait_ns": sum(l.wait_ns_total for l in mmap_locks),
            "pt_contended": sum(l.contended_acquires for l in pt_locks),
            "pt_wait_ns": sum(l.wait_ns_total for l in pt_locks),
            "sched_steps": smp.steps,
            "ctx_switches": sum(v.ctx_switches for v in smp.vcpus),
            "ipis_received": sum(v.ipis_received for v in smp.vcpus),
        }

    def _tlb_metrics(self):
        """The ``tlb`` namespace: hit/miss/flush totals over live views."""
        tlbs = [task.mm.tlb for task in self.kernel.tasks.values()]
        if self.smp is not None:
            tlbs.extend(v.tlb for v in self.smp.vcpus)
        out = {"hits": 0, "misses": 0, "flushes_full": 0,
               "flushes_range": 0, "evictions": 0}
        for tlb in tlbs:
            s = tlb.stats
            out["hits"] += s.hits
            out["misses"] += s.misses
            out["flushes_full"] += s.flushes_full
            out["flushes_range"] += s.flushes_range
            out["evictions"] += s.evictions
        out["shootdowns"] = self.kernel.stats.tlb_shootdowns
        out["ipis_sent"] = self.kernel.stats.ipis_sent
        return out

    def _san_metrics(self):
        """The ``san`` namespace: dynamic sanitizer tallies."""
        out = {}
        if self.kasan is not None:
            out["kasan_reports"] = len(self.kasan.reports)
            out["kasan_quarantined"] = len(self.kasan.quarantine)
        if self.kcsan is not None:
            out["kcsan_reports"] = len(self.kcsan.reports)
            out["kcsan_accesses"] = self.kcsan.accesses
        return out

    def _trace_metrics(self):
        """The ``trace`` namespace: the attached tracer's own counters."""
        tracer = points.current()
        if tracer is None or self not in tracer.machines:
            return {}
        return tracer.counters()

    def _fastpath_metrics(self):
        """The ``fastpath`` namespace: analytic fast-path engagement.

        Each ``*_engaged`` key is always present; a bail key appears once
        its reason has occurred.  Not part of ``vm``: a fast and a
        per-event machine differ here by design.
        """
        out = dict.fromkeys(FASTPATH_ENGAGED, 0)
        out.update(self.kernel.fastpath_counts)
        return out

    def _numa_metrics(self):
        """The ``numa`` namespace: zonelist + replication statistics."""
        if self.numa is None:
            return {}
        allocator = self.allocator
        stats = self.kernel.stats
        out = {
            "nodes": self.numa.nodes,
            "hit": allocator.numa_hit,
            "fallback": allocator.numa_fallback,
            "remote_accesses": stats.numa_remote_accesses,
            "pages_migrated": stats.pages_migrated,
        }
        for node, (free, used) in enumerate(
                zip(allocator.node_free_frames(),
                    allocator.node_used_frames())):
            out[f"node{node}_free"] = free
            out[f"node{node}_used"] = used
        mitosis = self.kernel.mitosis
        if mitosis is not None:
            out["replica_frames"] = mitosis.replica_frame_count()
            out["replica_allocs"] = stats.replica_allocs
            out["replica_syncs"] = stats.replica_syncs
            out["replica_collapses"] = stats.replica_collapses
            out["replica_fallbacks"] = stats.replica_fallbacks
        return out

    # ---- accounting / invariants -------------------------------------------------

    def live_data_frames(self):
        """Frames with a live refcount, excluding the reserved frame."""
        return self.pages.live_frames() - 1

    def used_frames(self):
        """Allocated frames, excluding the reserved frame 0."""
        return self.allocator.used_frames - 1

    def check_frame_invariants(self):
        """Cross-check allocator vs struct-page state (used by tests)."""
        self.pages.check_no_negative()
        self.allocator.check_consistency()

    def memory_report(self):
        """Machine-wide memory accounting summary."""
        return {
            "total_frames": self.allocator.n_frames,
            "used_frames": self.used_frames(),
            "free_frames": self.allocator.free_frames,
            "live_tables": self.kernel.live_tables,
            "page_cache_pages": len(self.kernel.page_cache),
            "materialized_host_frames": self.phys.materialized_frames,
        }
