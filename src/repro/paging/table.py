"""Page-table nodes and virtual-address arithmetic.

Linux's four-level layout (PGD → PUD → PMD → PTE table, 512 entries each)
is modelled with :class:`PageTable` objects whose entry array is a
``numpy.uint64[512]`` — the representation that lets fork, teardown, and
table COW process an entire table with vectorised operations.  Every table
is backed by a physical frame (page tables *are* pages); the machine keeps
a pfn → table map, the software analogue of ``page_address()``.

Levels are numbered from the leaves: 1 = PTE table, 2 = PMD, 3 = PUD,
4 = PGD.  A PMD *entry* therefore either points to a level-1 table or, with
the PS bit set, maps a 2 MiB huge page directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, KernelBug
from ..mem.page import PAGE_SHIFT, PAGE_SIZE, PTRS_PER_TABLE
from .entries import (
    BIT_PRESENT,
    BIT_SWAP,
    ENTRY_NONE,
    entry_pfn,
    is_present,
    present_mask,
)

LEVEL_PTE = 1
LEVEL_PMD = 2
LEVEL_PUD = 3
LEVEL_PGD = 4

LEVEL_NAMES = {LEVEL_PTE: "PTE", LEVEL_PMD: "PMD", LEVEL_PUD: "PUD", LEVEL_PGD: "PGD"}

# Bits of virtual address consumed below each level's index.
_INDEX_BITS = 9
_LEVEL_SHIFT = {
    LEVEL_PTE: PAGE_SHIFT,                      # bits 12..20
    LEVEL_PMD: PAGE_SHIFT + _INDEX_BITS,        # bits 21..29
    LEVEL_PUD: PAGE_SHIFT + 2 * _INDEX_BITS,    # bits 30..38
    LEVEL_PGD: PAGE_SHIFT + 3 * _INDEX_BITS,    # bits 39..47
}

#: Bytes of address space covered by one entry at each level.
LEVEL_SPAN = {level: 1 << shift for level, shift in _LEVEL_SHIFT.items()}
#: Bytes covered by an entire table at each level.
TABLE_SPAN = {level: LEVEL_SPAN[level] * PTRS_PER_TABLE for level in LEVEL_SPAN}

PMD_REGION_SIZE = LEVEL_SPAN[LEVEL_PMD]  # 2 MiB: one PTE table's coverage
VA_BITS = 48
VA_LIMIT = 1 << (VA_BITS - 1)  # user half of the canonical space


def table_index(vaddr, level):
    """Index into the ``level`` table for virtual address ``vaddr``."""
    return (vaddr >> _LEVEL_SHIFT[level]) & (PTRS_PER_TABLE - 1)


def level_base(vaddr, level):
    """The start of the region one ``level`` entry covers around ``vaddr``."""
    return vaddr & ~(LEVEL_SPAN[level] - 1)


def page_number(vaddr):
    """Virtual page number of ``vaddr``."""
    return vaddr >> PAGE_SHIFT


def page_offset(vaddr):
    """Byte offset of ``vaddr`` within its page."""
    return vaddr & (PAGE_SIZE - 1)


def page_align_down(vaddr):
    """Round ``vaddr`` down to a page boundary."""
    return vaddr & ~(PAGE_SIZE - 1)


def page_align_up(vaddr):
    """Round ``vaddr`` up to a page boundary."""
    return (vaddr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


#: The entries of every freed table (see :meth:`PageTable.detach_row`).
_DEAD_ENTRIES = np.zeros(PTRS_PER_TABLE, dtype=np.uint64)
_DEAD_ENTRIES.flags.writeable = False


class PageTable:
    """One 512-entry paging-structure node backed by a physical frame.

    The entry array is a row view into a machine-wide packed
    :class:`~repro.paging.store.EntryStore`, which is what lets fork,
    teardown, and the analytic fast path process *many* tables with one
    vectorised operation.

    A leaf (PTE) table also carries what the kernel keeps in a page
    table's ``struct page``: ``sharers``, the mms sharing it (the list's
    length is the paper's §3.5 reference count), and ``family``, its
    reverse-mapping family (:class:`~repro.kernel.rmap.RmapState`).
    Upper-level tables leave both ``None``.
    """

    __slots__ = ("level", "pfn", "entries", "row", "sharers", "family")

    def __init__(self, level, pfn, store, sharers=None):
        if level not in LEVEL_NAMES:
            raise InvalidArgumentError(f"bad table level {level}")
        self.level = level
        self.pfn = pfn
        self.row = store.acquire()
        self.entries = store.row_view(self.row)
        self.sharers = sharers
        self.family = None

    def detach_row(self):
        """Detach this table from its packed row (table freed).

        Returns the row id for the caller to hand back to the store with
        :meth:`~repro.paging.store.EntryStore.release`.  The entries
        rebind to a read-only zero array and the sharer list goes, so a
        stale entry write or share-count read through the dead table
        raises instead of touching a recycled row or a live count.
        """
        row = self.row
        self.row = -1
        self.entries = _DEAD_ENTRIES
        self.sharers = None
        return row

    def get(self, index):
        """Read the entry at ``index``."""
        return self.entries[index]

    # sancheck: ignore[clock-charge] -- raw entry accessor below the cost discipline: kernel callers charge via their per-operation models
    def set(self, index, entry):
        """Write the entry at ``index``."""
        self.entries[index] = entry

    # sancheck: ignore[clock-charge] -- raw entry accessor below the cost discipline: kernel callers charge via their per-operation models
    def clear(self, index):
        """Zero the entry at ``index``."""
        self.entries[index] = ENTRY_NONE

    def is_present(self, index):
        """Whether the entry at ``index`` is present."""
        return bool(is_present(self.entries[index]))

    def child_pfn(self, index):
        """The pfn a present entry points to (bug if absent)."""
        entry = self.entries[index]
        if not is_present(entry):
            raise KernelBug(
                f"{LEVEL_NAMES[self.level]} entry {index} not present"
            )
        return int(entry_pfn(entry))

    def present_indices(self):
        """Indices of present entries, as an int array."""
        return np.nonzero(present_mask(self.entries))[0]

    def present_count(self):
        """Number of present entries."""
        return int(np.count_nonzero(present_mask(self.entries)))

    def is_empty(self):
        """True when no entry is present or holds swap state.

        Swap entries are non-present but very much alive: freeing a table
        because only swap entries remain would orphan the slots (and the
        data) of still-mapped virtual addresses.
        """
        return not ((self.entries & (BIT_PRESENT | BIT_SWAP)) != 0).any()

    def copy_entries_from(self, other):
        """Vectorised whole-table entry copy (the fork fast path)."""
        np.copyto(self.entries, other.entries)

    def __repr__(self):
        return (
            f"PageTable({LEVEL_NAMES[self.level]}, pfn={self.pfn}, "
            f"present={self.present_count()})"
        )
