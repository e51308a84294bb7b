"""A per-address-space TLB model.

The TLB caches completed translations so repeated byte-level accesses skip
the software walk, and — more importantly for fidelity — it forces the
kernel to issue the same invalidations a real implementation must: fork and
odfork downgrade write permission in the *parent*, so stale writable
translations must be flushed or the child would miss its COW.
``repro.verify.audit_machine`` cross-checks every cached translation (each
live mm's TLB and each vCPU's view) against a side-effect-free walk, so a
missing flush fails the audit even before a write through the stale entry
skips its COW.

Capacity is finite with FIFO replacement (insertion order; re-inserting a
cached page keeps its place), sized like a unified L2 TLB.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..mem.page import PAGE_SHIFT
from ..trace import points


@dataclass
class TLBStats:
    """Hit/miss/flush counters for one TLB."""
    hits: int = 0
    misses: int = 0
    flushes_full: int = 0
    flushes_range: int = 0
    evictions: int = 0

    def hit_rate(self):
        """Hits / lookups over the TLB's lifetime."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class TLBEntry:
    """One cached translation."""
    pfn: int
    writable: bool


class TLB:
    """Translation cache keyed by virtual page number."""

    def __init__(self, capacity=1536):
        self.capacity = int(capacity)
        # An OrderedDict evicts its oldest entry in O(1); a plain dict's
        # ``next(iter(d))`` scans past every slot deleted from its front.
        self._entries = OrderedDict()
        self.stats = TLBStats()

    def lookup(self, vaddr, is_write):
        """Return a cached :class:`TLBEntry` or ``None``.

        A write through an entry cached read-only is a miss (the hardware
        would raise a permission fault and the kernel re-walks), so the
        caller always takes the slow path for permission upgrades.
        """
        vpn = vaddr >> PAGE_SHIFT
        entry = self._entries.get(vpn)
        if entry is None or (is_write and not entry.writable):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def insert(self, vaddr, pfn, writable):
        """Cache a completed translation (FIFO eviction)."""
        vpn = vaddr >> PAGE_SHIFT
        cache = self._entries
        if len(cache) >= self.capacity and vpn not in cache:
            cache.popitem(last=False)         # FIFO: the oldest insertion
            self.stats.evictions += 1
        cache[vpn] = TLBEntry(pfn, writable)

    def flush_all(self):
        """Invalidate every cached translation."""
        self._entries.clear()
        self.stats.flushes_full += 1

    def flush_range(self, start, end):
        """Invalidate translations for ``[start, end)``."""
        first = start >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT if end > start else first - 1
        n_pages = last - first + 1
        if n_pages <= 0:
            return
        if n_pages > len(self._entries):
            # Cheaper to scan the cache than the range.
            stale = [vpn for vpn in self._entries if first <= vpn <= last]
        else:
            stale = [vpn for vpn in range(first, last + 1) if vpn in self._entries]
        for vpn in stale:
            del self._entries[vpn]
        self.stats.flushes_range += 1

    def flush_page(self, vaddr):
        """Invalidate one page's translation."""
        self._entries.pop(vaddr >> PAGE_SHIFT, None)

    def cached(self):
        """``(vpn, TLBEntry)`` pairs, oldest insertion first."""
        return list(self._entries.items())

    def __len__(self):
        return len(self._entries)


def _flush(tlb, start, end):
    """Apply the narrowest invalidation covering ``[start, end)``."""
    if start is None:
        tlb.flush_all()
    elif end is None or end - start <= (1 << PAGE_SHIFT):
        tlb.flush_page(start)
    else:
        tlb.flush_range(start, end)


class ShootdownEngine:
    """Routes every TLB invalidation the kernel issues.

    Local flushes invalidate only the issuing CPU's view.  Shootdowns
    additionally interrupt (IPI) every *other* vCPU whose TLB caches
    translations for the affected address space — the moral equivalent
    of ``flush_tlb_mm_range`` walking ``mm_cpumask``.  Timing for the
    IPI round (sender send cost, receiver handler cost, ack wait) is
    charged by the scheduler's :meth:`deliver_ipis`.

    On a machine without an SMP scheduler — or outside a scheduler run,
    when no vCPU is executing — the per-mm TLB is the only live view and
    every method degrades to exactly the legacy flush-and-charge
    behaviour, so non-SMP timing is unchanged.  Stale vCPU views left
    over from a previous scheduler run are still invalidated (free of
    charge: those CPUs are idle), keeping cross-run coherence.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    # ---- helpers ----------------------------------------------------------

    def _sender(self):
        """The vCPU issuing the invalidation, or None outside an SMP run."""
        smp = self.kernel.smp
        if smp is not None and smp.running and smp.current is not None:
            return smp.current.vcpu
        return None

    def _vcpu_views(self, mms):
        """vCPUs whose TLB currently caches one of ``mms``."""
        smp = self.kernel.smp
        if smp is None:
            return []
        return [v for v in smp.vcpus
                if v.tlb_mm is not None
                and any(v.tlb_mm is mm for mm in mms)]

    def _remote_invalidate(self, mms, start, end):
        """Flush every other CPU's view of ``mms``; IPIs while running."""
        smp = self.kernel.smp
        if smp is None:
            return 0
        sender = self._sender()
        targets = [v for v in self._vcpu_views(mms) if v is not sender]
        if not targets:
            return 0
        if sender is not None:
            smp.deliver_ipis(targets, lambda tlb: _flush(tlb, start, end))
        else:
            # No CPU is running: lazily invalidate the idle views.
            for vcpu in targets:
                _flush(vcpu.tlb, start, end)
        self.kernel.stats.tlb_shootdowns += 1
        self._charge_node_fanout(mms, sender, targets)
        if points.enabled:
            if start is None or end is None:
                pages = 0          # full (or single-page) invalidation
            else:
                pages = max(1, (end - start) >> PAGE_SHIFT)
            points.tracepoint("tlb.shootdown", targets=len(targets),
                              pages=pages)
        return len(targets)

    def _charge_node_fanout(self, mms, sender, targets):
        """NUMA: book the interconnect cost of a cross-node IPI round.

        The target set's home nodes beyond the sender's each add the
        ``ipi_cross_node_extra`` penalty.  When any affected mm carries
        Mitosis replicas, the fan-out additionally reaches *every* node —
        the per-node page-table copies must be updated wherever a
        replica-hosting node could walk them — which is the replication
        tax the fig7-numa experiment measures against its walk savings.
        """
        kernel = self.kernel
        numa = kernel.numa
        if numa is None:
            return
        sender_node = sender.node if sender is not None else kernel.current_node()
        nodes = {v.node for v in targets}
        replicated = kernel.mitosis is not None and any(
            getattr(mm, "replicated", False) for mm in mms)
        if replicated:
            nodes.update(range(numa.nodes))
        remote_nodes = len(nodes - {sender_node})
        if remote_nodes:
            kernel.cost.charge_ipi_cross_node(remote_nodes)
        if points.enabled:
            points.tracepoint("tlb.node_fanout", node=sender_node,
                              remote_nodes=remote_nodes,
                              targets=len(targets), replicated=replicated)

    def _local_tlbs(self, mm):
        yield mm.tlb
        sender = self._sender()
        if sender is not None and sender.tlb_mm is mm:
            yield sender.tlb

    # ---- local flushes (current CPU only, never an IPI) -------------------

    def local_flush_page(self, mm, vaddr):
        """Invalidate one page in the issuing CPU's view of ``mm``."""
        for tlb in self._local_tlbs(mm):
            tlb.flush_page(vaddr)

    def local_flush_range(self, mm, start, end):
        """Invalidate ``[start, end)`` in the issuing CPU's view of ``mm``."""
        for tlb in self._local_tlbs(mm):
            tlb.flush_range(start, end)

    # ---- shootdowns (every CPU caching the mm) ----------------------------

    def shootdown_page(self, mm, vaddr):
        """Invalidate one page of ``mm`` everywhere (COW pfn changes)."""
        for tlb in self._local_tlbs(mm):
            tlb.flush_page(vaddr)
        self._remote_invalidate([mm], vaddr, None)

    def shootdown_mm(self, mm, start=None, end=None, charge=True):
        """Invalidate ``mm`` (optionally a range) in every CPU's TLB.

        With ``charge=True`` the invalidation cost is charged exactly as
        the legacy call sites did: ``charge_tlb_flush(n_pages)`` with the
        page count derived from the range (1 for a full flush).
        """
        for tlb in self._local_tlbs(mm):
            _flush(tlb, start, end)
        if charge:
            if start is None or end is None:
                n_pages = 1
            else:
                n_pages = max(1, (end - start) >> PAGE_SHIFT)
            self.kernel.cost.charge_tlb_flush(n_pages)
            if points.enabled:
                points.tracepoint("tlb.flush", pages=n_pages)
        self._remote_invalidate([mm], start, end)

    def shootdown_sharers(self, mms):
        """Full flush of every address space in ``mms``, the sharer list
        of one PTE table.

        Used by reclaim's in-place unmap of a fork-shared table: the edit
        changes translations under *all* sharers at once.
        """
        for mm in mms:
            mm.tlb.flush_all()
        sender = self._sender()
        if sender is not None and any(sender.tlb_mm is mm for mm in mms):
            sender.tlb.flush_all()
        self._remote_invalidate(mms, None, None)
