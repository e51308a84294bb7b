"""Swap device and swap cache.

:class:`SwapDevice` models one swap area: a slot allocator plus the
per-slot reference count (``swap_map``, named after Linux's array in
``struct swap_info_struct``).  A slot's count is the number of swap
entries that reference it — one per PageTable *object* holding a
swap-entry PTE for it plus one per snapshot that saved such an entry —
the same ownership rule data pages use.  When the count drops to zero
the slot (and its stored data) is released.

:class:`SwapCache` is the slot <-> pfn association for pages that are
in memory while their slot is still live.  It serves two jobs, exactly
as in Linux:

* after a swap-in, sharers that fault later find the frame here instead
  of reading the slot again (and, crucially, they converge on *one*
  frame — required for COW correctness when a fork-shared page was
  swapped out);
* a clean page still in the cache can be reclaimed again without any
  write-out, because the COW protocol maps cached pages read-only —
  cache content never diverges from slot content.

The cache holds one page reference per entry (the cache's reference),
so a cached frame cannot be freed behind its back.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, KernelBug


class SwapDevice:
    """Slot allocator + per-slot reference counts + slot contents."""

    def __init__(self, n_slots):
        if n_slots <= 0:
            raise ConfigurationError(f"swap device needs > 0 slots, got {n_slots}")
        self.n_slots = int(n_slots)
        #: per-slot reference count (0 = free)
        self.swap_map = np.zeros(self.n_slots, dtype=np.int32)
        # LIFO free list: reuse recently freed slots first, like Linux's
        # cluster allocator prefers the current cluster.
        self._free = list(range(self.n_slots - 1, -1, -1))
        # slot -> bytes; a missing key for a live slot means the page was
        # never materialized (all zeroes), so nothing is stored.
        self._data = {}

    def __len__(self):
        return self.n_slots

    @property
    def used_slots(self):
        return self.n_slots - len(self._free)

    def alloc_slot(self):
        """Take a free slot, or ``None`` when the device is full."""
        if not self._free:
            return None
        slot = self._free.pop()
        if self.swap_map[slot] != 0:
            raise KernelBug(f"slot {slot} on the free list with refs")
        return slot

    def write(self, slot, data):
        """Store a page's contents; ``None`` means an all-zero page."""
        if data is None:
            self._data.pop(slot, None)
        else:
            self._data[slot] = bytes(data)

    def read(self, slot):
        """Return the stored bytes, or ``None`` for an all-zero page."""
        return self._data.get(slot)

    def release_slot(self, slot):
        """Return a slot whose reference count reached zero."""
        if self.swap_map[slot] != 0:
            raise KernelBug(f"releasing slot {slot} with {self.swap_map[slot]} refs")
        self._data.pop(slot, None)
        self._free.append(slot)


class SwapCache:
    """Bidirectional slot <-> pfn map for in-memory pages with live slots."""

    def __init__(self):
        self._by_slot = {}
        self._by_pfn = {}

    def __len__(self):
        return len(self._by_slot)

    def add(self, slot, pfn):
        if slot in self._by_slot or pfn in self._by_pfn:
            raise KernelBug(f"swap cache collision: slot {slot} / pfn {pfn}")
        self._by_slot[slot] = pfn
        self._by_pfn[pfn] = slot

    def pfn_of(self, slot):
        return self._by_slot.get(slot)

    def slot_of(self, pfn):
        return self._by_pfn.get(pfn)

    def remove_slot(self, slot):
        """Drop the entry for ``slot``; returns its pfn or ``None``."""
        pfn = self._by_slot.pop(slot, None)
        if pfn is not None:
            del self._by_pfn[pfn]
        return pfn

    def items(self):
        return self._by_slot.items()
