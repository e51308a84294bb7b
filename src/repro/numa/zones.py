"""Per-node buddy zones behind a BuddyAllocator-compatible facade.

:class:`NumaAllocator` splits the machine's physical frames into one
contiguous span per NUMA node and runs an unmodified
:class:`~repro.mem.buddy.BuddyAllocator` over each span (zone-local pfn
0 is the span base).  The facade translates between global and
zone-local pfns and presents the exact surface the kernel already
programs against — ``alloc``/``free``/``alloc_bulk``/``free_bulk``/
``allocated_order``/``free_frames``/``used_frames``/``check_consistency``/
``sanitizer`` —
so every existing call site works untouched, while NUMA-aware callers
pass ``node=`` to place allocations.

Allocation follows the zonelist discipline: try the preferred node, then
fall back through :attr:`NumaTopology.fallback` (nearest-first) like
``__alloc_pages_nodemask``.  Fallbacks are counted per node and emit the
``numa.alloc_fallback`` tracepoint; ``strict=True`` (the ``bind``
mempolicy, and replica frames which are worthless off-node) disables
fallback entirely.

Zone spans are aligned to the buddy's maximum block (``2**MAX_ORDER``
frames) so coalescing can never pair frames across a node boundary.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..errors import ConfigurationError
from ..mem.buddy import MAX_ORDER, BuddyAllocator, OutOfFramesError
from ..trace import points

_BLOCK = 1 << MAX_ORDER


class NumaAllocator:
    """Allocate physical frames from per-node zones with fallback order."""

    def __init__(self, n_frames, topology):
        self.n_frames = int(n_frames)
        self.topology = topology
        nodes = topology.nodes
        n_blocks = self.n_frames // _BLOCK
        if n_blocks < nodes:
            raise ConfigurationError(
                f"{self.n_frames} frames split into {nodes} nodes leaves a "
                f"zone below one {_BLOCK}-frame buddy block; use a bigger "
                f"machine or fewer nodes")
        self.bases = []
        self.zones = []
        for node in range(nodes):
            start = (node * n_blocks // nodes) * _BLOCK
            end = ((node + 1) * n_blocks // nodes) * _BLOCK
            if node == nodes - 1:
                end = self.n_frames   # last zone absorbs the remainder
            self.bases.append(start)
            self.zones.append(BuddyAllocator(end - start))
        # KASAN interception point; zone sanitizers stay None — poisoning
        # and quarantine happen once, at the facade, on global pfns.
        self.sanitizer = None
        # Zonelist statistics, mirroring /sys/devices/system/node numastat.
        self.numa_hit = 0
        self.numa_fallback = 0
        self.node_allocs = [0] * nodes

    # ---- pfn geography ---------------------------------------------------

    def node_of(self, pfn):
        """The node whose zone owns ``pfn``."""
        return bisect_right(self.bases, int(pfn)) - 1

    def node_of_bulk(self, pfns):
        """Vectorised :meth:`node_of` for a pfn array."""
        return np.searchsorted(np.asarray(self.bases), np.asarray(pfns),
                               side="right") - 1

    # ---- single-block interface -----------------------------------------

    def alloc(self, order=0, node=None, strict=False):
        """Allocate a block, preferring ``node`` (0 when unspecified)."""
        preferred = 0 if node is None else int(node)
        candidates = ((preferred,) if strict
                      else self.topology.fallback[preferred])
        for candidate in candidates:
            zone = self.zones[candidate]
            if zone.free_frames < (1 << order):
                continue
            try:
                pfn = zone.alloc(order) + self.bases[candidate]
            except OutOfFramesError:
                continue   # fragmented: no block of this order here
            self.node_allocs[candidate] += 1
            if candidate == preferred:
                self.numa_hit += 1
            else:
                self.numa_fallback += 1
                if points.enabled:
                    points.tracepoint("numa.alloc_fallback",
                                      preferred=preferred, got=candidate,
                                      order=order, node=candidate)
            return pfn
        raise OutOfFramesError(
            f"no free block of order {order} on node {preferred}"
            f"{' (strict)' if strict else ' or its fallbacks'}"
            f" ({self.free_frames} frames free machine-wide)")

    def free(self, pfn, order=None):
        """Free a block previously returned by :meth:`alloc` or bulk paths."""
        if self.sanitizer is not None:
            self.sanitizer.intercept_free(pfn, order)
            return
        self._free_now(pfn, order)

    def _free_now(self, pfn, order=None):
        """The real free path (quarantine eviction enters here directly)."""
        node = self.node_of(pfn)
        self.zones[node]._free_now(int(pfn) - self.bases[node], order)

    def allocated_order(self, pfn):
        """The order of the live allocation ``pfn`` heads, or -1."""
        node = self.node_of(pfn)
        return self.zones[node].allocated_order(int(pfn) - self.bases[node])

    # ---- bulk interface --------------------------------------------------

    def alloc_bulk(self, n, node=None, interleave=False):
        """Allocate ``n`` order-0 frames as a global-pfn int64 array.

        ``interleave=True`` stripes the request evenly across all nodes
        (the interleave mempolicy); otherwise frames come from the
        preferred node first, spilling through the fallback order.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        if n > self.free_frames:
            raise OutOfFramesError(
                f"requested {n} frames, {self.free_frames} free")
        preferred = 0 if node is None else int(node)
        nodes = self.topology.nodes
        if interleave and nodes > 1:
            share = [n // nodes + (1 if i < n % nodes else 0)
                     for i in range(nodes)]
            # Cap each node at what it has; spill the shortfall through
            # the preferred node's fallback order below.
            want = [min(share[i], self.zones[i].free_frames)
                    for i in range(nodes)]
        else:
            want = [0] * nodes
            want[preferred] = min(n, self.zones[preferred].free_frames)
        remaining = n - sum(want)
        for candidate in self.topology.fallback[preferred]:
            if remaining <= 0:
                break
            spare = self.zones[candidate].free_frames - want[candidate]
            take = min(remaining, spare)
            if take > 0:
                want[candidate] += take
                remaining -= take
        chunks = []
        for candidate in self.topology.fallback[preferred]:
            count = want[candidate]
            if count <= 0:
                continue
            chunks.append(self.zones[candidate].alloc_bulk(count)
                          + self.bases[candidate])
            self.node_allocs[candidate] += 1
            if candidate == preferred or interleave:
                self.numa_hit += 1
            else:
                self.numa_fallback += 1
                if points.enabled:
                    points.tracepoint("numa.alloc_fallback",
                                      preferred=preferred, got=candidate,
                                      order=0, node=candidate)
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def free_bulk(self, pfns):
        """Free an array of order-0 frames, splitting them per zone."""
        pfns = np.asarray(pfns, dtype=np.int64)
        if pfns.size == 0:
            return
        if self.sanitizer is not None:
            for pfn in pfns.tolist():
                self.sanitizer.intercept_free(pfn, 0)
            return
        owners = self.node_of_bulk(pfns)
        for node, zone in enumerate(self.zones):
            local = pfns[owners == node] - self.bases[node]
            if local.size:
                zone.free_bulk(local)

    # ---- diagnostics -----------------------------------------------------

    @property
    def free_frames(self):
        """Frames currently free, machine-wide."""
        return sum(zone.free_frames for zone in self.zones)

    @property
    def used_frames(self):
        """Frames currently allocated, machine-wide."""
        return sum(zone.used_frames for zone in self.zones)

    def node_free_frames(self):
        """Free frames per node."""
        return [zone.free_frames for zone in self.zones]

    def node_used_frames(self):
        """Allocated frames per node."""
        return [zone.used_frames for zone in self.zones]

    def node_span(self, node):
        """``(base_pfn, n_frames)`` of a node's zone."""
        return self.bases[node], self.zones[node].n_frames

    def check_consistency(self):
        """Run every zone's double-ownership invariant check."""
        for zone in self.zones:
            zone.check_consistency()
