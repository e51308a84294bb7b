"""The tracepoint registry: every event the kernel may emit, declared once.

Mirrors ftrace's ``TRACE_EVENT`` discipline: an event must be *declared*
before any site may emit it.  The declaration carries the event class
(the prefix before the dot, which groups histograms and Perfetto tracks),
whether the event is a **span** (carries a ``dur_ns`` field and lands in
the latency histograms) or an **instant** marker, and the documented
fields.  Emitting an undeclared name raises at runtime, and the
``trace-registry`` sancheck rule rejects it statically — a typo'd event
name can never silently vanish from a report.
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_SPAN = "span"        # carries dur_ns; aggregated into log2 histograms
KIND_INSTANT = "instant"  # a point marker with fields


@dataclass(frozen=True)
class EventSpec:
    """One declared tracepoint."""

    name: str          # "fault.cow" — class is the prefix before the dot
    kind: str          # KIND_SPAN or KIND_INSTANT
    doc: str
    fields: tuple = ()

    @property
    def cls(self):
        """The event class ("fault", "fork", ...)."""
        return self.name.split(".", 1)[0]


def _spec(name, kind, doc, fields=()):
    return EventSpec(name, kind, doc, tuple(fields))


#: Every declared event, keyed by name.  Sites emit with
#: ``points.tracepoint("<name>", field=value, ...)``.
EVENTS = {spec.name: spec for spec in (
    # ---- fork (classic copy_page_range) --------------------------------
    _spec("fork.invoke", KIND_SPAN,
          "One fork/odfork syscall, end to end",
          ("dur_ns", "pid", "child_pid", "odf")),
    _spec("fork.copy_slot", KIND_INSTANT,
          "Classic fork copied one present 2 MiB PMD slot",
          ("slot_start", "huge", "n_present")),
    _spec("fork.copy_done", KIND_INSTANT,
          "Classic copy epilogue: totals for the whole address space",
          ("leaf_tables", "huge_entries", "upper_tables")),
    # ---- odfork (the paper's share path) -------------------------------
    _spec("odfork.share_table", KIND_INSTANT,
          "odfork shared leaf tables under one PMD table (1 GiB): every "
          "present slot in the syscall, one slot per event under SMP; "
          "table_base is the PMD table's base address either way",
          ("table_base", "n_shared", "n_huge")),
    _spec("odfork.share_done", KIND_INSTANT,
          "odfork epilogue: share totals and the write-protect shootdown",
          ("shared_tables", "upper_tables")),
    # ---- page faults (§3.4 decision tree) ------------------------------
    _spec("fault.handle", KIND_SPAN,
          "One page fault, entry to fixed-up exit",
          ("dur_ns", "vaddr", "write", "huge_vma")),
    _spec("fault.demand_zero", KIND_INSTANT,
          "Anonymous first touch: zeroed exclusive page handed out",
          ("pfn",)),
    _spec("fault.cow", KIND_INSTANT,
          "Data-page COW resolution (reuse=True is the refcount-1 fast "
          "path that copies nothing)",
          ("vaddr", "pfn", "reuse")),
    _spec("fault.file", KIND_INSTANT,
          "Page-cache fill (private_cow=True broke to an anon copy)",
          ("vaddr", "pfn", "private_cow")),
    _spec("fault.swap_in", KIND_INSTANT,
          "Swap-entry PTE faulted back in (cache_hit=True cost no I/O)",
          ("slot", "pfn", "cache_hit")),
    _spec("fault.huge", KIND_INSTANT,
          "2 MiB fault: demand allocation or whole-page COW",
          ("vaddr", "cow", "reuse")),
    _spec("fault.spurious", KIND_INSTANT,
          "Fault found nothing to do (stale TLB, lost race)",
          ("vaddr",)),
    # ---- shared-table lifecycle (§3.4–3.6, the COW-vs-table-copy split)
    _spec("table.cow_copy", KIND_INSTANT,
          "First write under a shared PTE table: dedicated copy taken",
          ("slot_start", "n_present", "remaining_sharers")),
    _spec("table.unshare", KIND_INSTANT,
          "Sole surviving owner flipped its PMD write bit back on",
          ("table_pfn",)),
    # ---- reclaim / swap ------------------------------------------------
    _spec("reclaim.kswapd_wake", KIND_INSTANT,
          "Background reclaim woken below the low watermark",
          ("free_frames", "nr_extra")),
    _spec("reclaim.shrink", KIND_SPAN,
          "One shrink pass over the LRU lists",
          ("dur_ns", "target", "freed", "scanned", "kswapd")),
    _spec("reclaim.evict", KIND_INSTANT,
          "One frame evicted to swap (io=False reused a clean cache slot)",
          ("pfn", "slot", "io")),
    # ---- TLB coherence -------------------------------------------------
    _spec("tlb.shootdown", KIND_INSTANT,
          "Remote invalidation round: IPIs to every CPU caching the mm",
          ("targets", "pages")),
    _spec("tlb.flush", KIND_INSTANT,
          "Local flush of the issuing CPU's view",
          ("pages",)),
    _spec("tlb.node_fanout", KIND_INSTANT,
          "Shootdown's per-NUMA-node fan-out (replicas widen remote_nodes)",
          ("node", "remote_nodes", "targets", "replicated")),
    # ---- kernel locks (SMP scheduler) ----------------------------------
    _spec("lock.acquire", KIND_INSTANT,
          "Lock acquisition attempt (contended=True parked on the queue)",
          ("kind", "contended", "cpu")),
    _spec("lock.wait", KIND_SPAN,
          "Queueing delay between park and handoff grant",
          ("dur_ns", "kind", "cpu")),
    # ---- buddy allocator -----------------------------------------------
    _spec("buddy.alloc", KIND_INSTANT,
          "One block allocated (order 9 = a 2 MiB compound page)",
          ("pfn", "order")),
    _spec("buddy.free", KIND_INSTANT,
          "One block freed back (after coalescing)",
          ("pfn", "order")),
    # ---- NUMA topology (per-node zones, distance penalties) ------------
    _spec("numa.alloc_fallback", KIND_INSTANT,
          "Preferred node's zone was exhausted; fell back by distance",
          ("preferred", "got", "order", "node")),
    _spec("numa.remote_access", KIND_INSTANT,
          "A data access crossed nodes (factor = distance/local - 1)",
          ("node", "target_node", "factor")),
    _spec("numa.migrate", KIND_INSTANT,
          "migrate_pages moved a process's pages to a target node",
          ("pid", "target_node", "moved", "node")),
    # ---- Mitosis page-table replication --------------------------------
    _spec("mitosis.replica_alloc", KIND_INSTANT,
          "A fresh table gained one replica frame per remote node",
          ("table_pfn", "nodes", "node")),
    _spec("mitosis.replica_skip", KIND_INSTANT,
          "Replica allocation failed; table proceeds unreplicated",
          ("table_pfn", "node")),
    _spec("mitosis.replica_sync", KIND_INSTANT,
          "Write fan-out: a table mutation updated every replica",
          ("table_pfn", "nodes", "entries", "node")),
    _spec("mitosis.replica_collapse", KIND_INSTANT,
          "A table's replicas were freed (odfork share, or table free)",
          ("table_pfn", "n_replicas", "reason", "node")),
    # ---- fleet layer (repro.cluster): gateway / NIC / DLM / snapshots --
    _spec("gateway.enqueue", KIND_INSTANT,
          "Request admitted at the gateway and striped to a replica",
          ("replica", "qlen", "rerouted")),
    _spec("gateway.dispatch", KIND_SPAN,
          "Client arrival to service start: network + replica queueing",
          ("dur_ns", "replica")),
    _spec("nic.tx", KIND_INSTANT,
          "One transmit booked on a NIC (queue_ns is the delay behind "
          "earlier transfers)",
          ("nic", "nbytes", "queue_ns")),
    _spec("nic.rx", KIND_INSTANT,
          "One receive booked on a NIC",
          ("nic", "nbytes", "queue_ns")),
    _spec("dlm.acquire", KIND_SPAN,
          "DLM lock request to grant (queued=True waited behind a holder)",
          ("dur_ns", "lock", "owner", "queued")),
    _spec("dlm.release", KIND_INSTANT,
          "DLM lock released; the next FIFO waiter may be granted",
          ("lock", "owner")),
    _spec("snap.wave_start", KIND_INSTANT,
          "A snapshot (sub-)wave was granted the epoch lock",
          ("wave", "sub", "n_replicas", "strategy")),
    _spec("snap.wave_end", KIND_SPAN,
          "Epoch grant to the slowest replica's fork return (longest path)",
          ("dur_ns", "wave", "sub", "max_block_ns")),
    # ---- FaaS farm (repro.faas): odfork-per-invocation cold starts -----
    _spec("faas.template_spawn", KIND_SPAN,
          "A warm template process was built and pre-faulted for an image",
          ("dur_ns", "image", "rss_mb", "huge")),
    _spec("faas.cold_start", KIND_SPAN,
          "One cold start: the fork/odfork block off the warm template",
          ("dur_ns", "image", "pid", "odf")),
    _spec("faas.invoke", KIND_SPAN,
          "One invocation end to end: queueing excluded, fork + handler",
          ("dur_ns", "image", "cold", "node")),
    _spec("faas.warm_reset", KIND_INSTANT,
          "Template rolled back to its pristine snapshot after warm drift",
          ("image", "restored")),
    _spec("faas.teardown", KIND_INSTANT,
          "An invocation instance was reaped after its keep-alive expired",
          ("image", "pid")),
)}


def spec_for(name):
    """The :class:`EventSpec` for ``name`` (KeyError on undeclared)."""
    return EVENTS[name]


def event_classes():
    """Sorted distinct event classes."""
    return sorted({spec.cls for spec in EVENTS.values()})
