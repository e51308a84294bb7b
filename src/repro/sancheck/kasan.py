"""KASAN-style frame poisoning for the buddy allocator.

Mirrors the kernel's generic KASAN in miniature:

* **Poison on free** — a freed block is filled with :data:`POISON_BYTE`
  and *parked in a quarantine* instead of returning to the free lists,
  so the frames cannot be immediately reallocated and a late access
  through a stale pfn is unambiguously a use-after-free.
* **Double-free / invalid-free** — freeing a quarantined frame, or a pfn
  that never headed a live allocation, raises :class:`KasanError`
  instead of the allocator's generic :class:`KernelBug`.
* **Access checks** — :class:`~repro.mem.physmem.PhysicalMemory` calls
  :meth:`check_access` from its read/write/copy paths; touching a
  quarantined frame reports use-after-free with both the access and the
  free site recorded.

The quarantine is bounded (like KASAN's percpu quarantine): once it
exceeds :data:`QUARANTINE_DEPTH` blocks the oldest entry is *really*
freed — its buffer is dropped (clearing the poison) and the block goes
back to the buddy free lists.  :meth:`flush` drains it entirely; the
verify harness calls it before leak accounting because quarantined
frames still count as allocated.
"""

from __future__ import annotations

from collections import deque

from ..errors import KasanError
from ..mem.page import PAGE_SIZE

POISON_BYTE = 0xFB
QUARANTINE_DEPTH = 32

_POISON_PAGE = bytes([POISON_BYTE]) * PAGE_SIZE


class KasanState:
    """Poisoned-frame tracking shared by the allocator and physmem."""

    def __init__(self, allocator, phys, quarantine_depth=QUARANTINE_DEPTH):
        self.allocator = allocator
        self.phys = phys
        self.quarantine_depth = int(quarantine_depth)
        # Every frame of every quarantined block -> the block's head pfn.
        self.poisoned = {}
        # FIFO of (head_pfn, order) blocks awaiting the real free.
        self.quarantine = deque()
        self.reports = []
        self.frees_intercepted = 0

    # ---- free-path interception (called by BuddyAllocator.free) ----------

    def intercept_free(self, pfn, order=None):
        """Poison + quarantine a block instead of freeing it."""
        pfn = int(pfn)
        if pfn in self.poisoned:
            self._report(
                f"double free of pfn {pfn} "
                f"(block head {self.poisoned[pfn]} already quarantined)")
        recorded = self.allocator.allocated_order(pfn)
        if recorded < 0:
            self._report(
                f"invalid free of pfn {pfn} (not a live allocation head)")
        if order is not None and order != recorded:
            self._report(
                f"free of pfn {pfn} at order {order}, allocated {recorded}")
        self.frees_intercepted += 1
        for frame in range(pfn, pfn + (1 << recorded)):
            # Poison *before* marking, so this write does not trip the
            # physmem access check that guards quarantined frames.
            self.phys.write(frame, 0, _POISON_PAGE)
            self.poisoned[frame] = pfn
        self.quarantine.append((pfn, recorded))
        while len(self.quarantine) > self.quarantine_depth:
            self._evict_oldest()

    def _evict_oldest(self):
        head, order = self.quarantine.popleft()
        for frame in range(head, head + (1 << order)):
            del self.poisoned[frame]
            self.phys.zero(frame)
        self.allocator._free_now(head, order)

    def flush(self):
        """Drain the quarantine, really freeing every parked block."""
        while self.quarantine:
            self._evict_oldest()

    # ---- access checks (called by PhysicalMemory) ------------------------

    def check_access(self, pfn, kind):
        """Raise on any data access to a quarantined (poisoned) frame."""
        head = self.poisoned.get(int(pfn))
        if head is not None:
            self._report(
                f"use-after-free: {kind} of pfn {int(pfn)} "
                f"(freed as part of block {head}, still quarantined)")

    def _report(self, message):
        self.reports.append(message)
        raise KasanError(message)
