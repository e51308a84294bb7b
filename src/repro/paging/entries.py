"""x86-64 paging-entry encodings.

Entries are 64-bit integers with the architectural bit layout (the subset
the model needs): present, read/write, user, accessed, dirty, page-size
(huge), and the physical frame number in bits 12..51.  Helpers work on both
scalars and numpy arrays so the fork fast paths can manipulate whole tables
at once.

The read/write bit is what On-demand-fork's mechanism revolves around:
x86's *hierarchical attributes* mean an entry with RW=0 at an upper level
write-protects everything below it, regardless of leaf RW bits (Intel SDM
Vol 3A §4.6).  The walker in :mod:`repro.paging.walk` implements exactly
that AND-across-levels rule.
"""

from __future__ import annotations

import sys

import numpy as np

from ..mem.page import PAGE_SHIFT

BIT_PRESENT = np.uint64(1 << 0)
BIT_RW = np.uint64(1 << 1)
BIT_USER = np.uint64(1 << 2)
BIT_ACCESSED = np.uint64(1 << 5)
BIT_DIRTY = np.uint64(1 << 6)
BIT_PS = np.uint64(1 << 7)  # page size: set in a PMD entry mapping 2 MiB
# Software bit (x86 leaves 9..11 to the OS): a non-present entry whose
# SWAP bit is set encodes a swap entry rather than "nothing mapped".
BIT_SWAP = np.uint64(1 << 9)
_SWAP_OR_PRESENT = BIT_SWAP | BIT_PRESENT

PFN_SHIFT = np.uint64(PAGE_SHIFT)
PFN_MASK = np.uint64(((1 << 40) - 1) << PAGE_SHIFT)

# Swap-entry layout (mirrors Linux's swp_entry_t packing into a pte):
#
#     63..52   51..12        11..10  9     8..7  6..2       1..0
#     unused   swap offset   avail   SWAP  zero  swap type  zero (P=0)
#
# The slot offset reuses the PFN field, the device type sits in bits 2..6
# (32 devices), the present bit stays clear so the hardware walker faults
# and routes the access to the software fault handler.
SWAP_TYPE_SHIFT = np.uint64(2)
SWAP_TYPE_MASK = np.uint64(0x1F << 2)

ENTRY_NONE = np.uint64(0)

#: Whether an entry's low byte (PRESENT, RW, ..., PS) is its first byte
#: in memory, which :func:`present_pfns` reads through a strided view.
LOW_BYTE_FIRST = sys.byteorder == "little"


#: The bits as Python ints, for scalar code that reads entries with
#: ``ndarray.item``: an int op costs about a tenth of a np.uint64 op.
INT_PRESENT = int(BIT_PRESENT)
INT_RW = int(BIT_RW)
INT_USER = int(BIT_USER)
INT_ACCESSED = int(BIT_ACCESSED)
INT_DIRTY = int(BIT_DIRTY)
INT_PS = int(BIT_PS)
INT_SWAP = int(BIT_SWAP)
INT_PFN_MASK = int(PFN_MASK)


def make_entry(pfn, writable=True, user=True, present=True, huge=False,
               accessed=False, dirty=False):
    """Build an entry mapping ``pfn`` with the given attribute bits.

    Returns a Python int (a table accepts it as is); the array helpers
    below take it too.
    """
    entry = (int(pfn) << PAGE_SHIFT) & INT_PFN_MASK
    if present:
        entry |= INT_PRESENT
    if writable:
        entry |= INT_RW
    if user:
        entry |= INT_USER
    if huge:
        entry |= INT_PS
    if accessed:
        entry |= INT_ACCESSED
    if dirty:
        entry |= INT_DIRTY
    return entry


def entry_pfn(entry):
    """Extract the pfn; works on scalars and arrays."""
    return (entry & PFN_MASK) >> PFN_SHIFT


def is_present(entry):
    """Present bit test (scalar or array)."""
    return (entry & BIT_PRESENT) != 0


def is_writable(entry):
    """R/W bit test (scalar or array)."""
    return (entry & BIT_RW) != 0


def is_huge(entry):
    """PS bit test: a PMD entry mapping 2 MiB directly."""
    return (entry & BIT_PS) != 0


def is_accessed(entry):
    """Accessed bit test."""
    return (entry & BIT_ACCESSED) != 0


def is_dirty(entry):
    """Dirty bit test."""
    return (entry & BIT_DIRTY) != 0


def set_bits(entry, bits):
    """Return ``entry`` with ``bits`` set."""
    return entry | bits


def clear_bits(entry, bits):
    """Return ``entry`` with ``bits`` cleared."""
    return entry & ~bits


def make_swap_entry(slot, swap_type=0):
    """Encode a swap entry: present clear, SWAP set, slot in the pfn field."""
    entry = (np.uint64(slot) << PFN_SHIFT) & PFN_MASK
    entry |= (np.uint64(swap_type) << SWAP_TYPE_SHIFT) & SWAP_TYPE_MASK
    return entry | BIT_SWAP


def is_swap_entry(entry):
    """Swap-entry test (scalar or array): non-present with the SWAP bit."""
    return ((entry & BIT_PRESENT) == 0) & ((entry & BIT_SWAP) != 0)


def swap_entry_slot(entry):
    """Slot offset of a swap entry (scalar or array)."""
    return (entry & PFN_MASK) >> PFN_SHIFT


def swap_entry_type(entry):
    """Device index of a swap entry (scalar or array)."""
    return (entry & SWAP_TYPE_MASK) >> SWAP_TYPE_SHIFT


def present_mask(entries):
    """Boolean mask of present entries in a table array."""
    return (entries & BIT_PRESENT) != 0


def present_pfns(entries):
    """``(present, pfns)``: :func:`present_mask` of ``entries`` and the
    pfns of its present entries as int64, in row-major order.

    One pass per column.  The present bits come from a strided ``uint8``
    view of each entry's low byte, which writes a byte per entry where
    the mask builds a 64-bit temporary first (a big-endian host, or a
    last axis that is not contiguous, takes the mask).  The pfns are
    masked and shifted in place in one scratch buffer and returned
    through an ``int64`` view (the pfn field ends below bit 63); when
    every entry is present, ``ravel`` replaces the boolean compress.
    """
    if LOW_BYTE_FIRST and entries.strides[-1] == entries.itemsize:
        low = entries.view(np.uint8)[..., ::entries.itemsize]
        present = np.bitwise_and(low, 1).view(bool)
    else:
        present = present_mask(entries)
    if np.count_nonzero(present) == present.size:
        pfns = np.bitwise_and(entries.ravel(), PFN_MASK)
    else:
        pfns = entries[present]
        np.bitwise_and(pfns, PFN_MASK, out=pfns)
    np.right_shift(pfns, PFN_SHIFT, out=pfns)
    return present, pfns.view(np.int64)


def swap_mask(entries):
    """Boolean mask of swap entries in a table array.

    One masked compare (SWAP set, PRESENT clear) keeps the temporaries of
    a many-table matrix to one.
    """
    return (entries & _SWAP_OR_PRESENT) == BIT_SWAP


def writable_mask(entries):
    """Boolean mask of writable entries in a table array."""
    return (entries & BIT_RW) != 0
