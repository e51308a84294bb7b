"""``struct page`` metadata for every physical frame.

Linux describes each physical 4 KiB frame with a ``struct page``; the fork
leaf loop's hot spots (Figure 3) are exactly accesses to this array:
``compound_head()`` reads it and ``page_ref_inc()`` atomically increments
its refcount.  We model the array as parallel numpy vectors indexed by page
frame number (pfn), which is both faithful (contiguous memmap-style layout)
and fast (fork and teardown update refcounts for whole PTE tables with one
vectorised operation).

The paper's implementation note (§4 "Memory Usage") stores the shared-PTE-
table reference counter in an unused union inside ``struct page``.  This
model keeps no such column: the count is the length of the table's own
sharer list (``PageTable.sharers``), which TLB shootdowns need anyway.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, KernelBug

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PTRS_PER_TABLE = 512
HUGE_PAGE_ORDER = 9                      # 2 MiB on x86-64
HUGE_PAGE_SIZE = PAGE_SIZE << HUGE_PAGE_ORDER

# Page flags (subset of the kernel's enum pageflags relevant to the model).
PG_ANON = 1 << 0
PG_FILE = 1 << 1
PG_PAGETABLE = 1 << 2
PG_COMPOUND_HEAD = 1 << 3
PG_COMPOUND_TAIL = 1 << 4
PG_DIRTY = 1 << 5
PG_RESERVED = 1 << 6

#: :func:`has_duplicates` orders a batch's ascending runs only when they
#: average at least this many values; shorter runs go straight to the
#: sort, which then costs about as much.
_MIN_RUN = 64


def has_duplicates(values):
    """Whether any value occurs more than once in ``values``.

    Page-table batches are nearly always a few strictly ascending runs
    (a table maps each page once, and fills hand out frames in pfn order,
    one buddy block after another).  Runs whose ``[first, last]`` ranges
    do not overlap hold no value twice, which proves uniqueness in one
    linear pass; only a batch that fails that test pays for a sort.
    """
    if len(values) < 2:
        return False
    values = np.asarray(values)
    ends = np.flatnonzero(values[1:] <= values[:-1])
    if len(ends) == 0:
        return False
    if len(ends) * _MIN_RUN < len(values):
        firsts = values[np.concatenate(([0], ends + 1))]
        lasts = values[np.append(ends, len(values) - 1)]
        order = np.argsort(firsts)
        if (firsts[order[1:]] > lasts[order[:-1]]).all():
            return False
    ordered = np.sort(values)
    return bool((ordered[1:] == ordered[:-1]).any())


def add_at(column, index, delta, unique=False):
    """``column[index] += delta``, counting an index listed k times k times.

    Fancy-index update when the indices are unique (the overwhelmingly
    common case: a table maps each page once); ``np.add.at`` — which is
    duplicate-safe but an order of magnitude slower — otherwise.
    ``unique`` says the caller already proved ``index`` duplicate-free.
    """
    if not unique and has_duplicates(index):
        np.add.at(column, index, delta)
    else:
        column[index] += delta


class PageStructArray:
    """Per-frame metadata: refcounts and flags.

    All vectors are allocated with ``np.zeros`` which commits memory lazily,
    so configuring a machine with tens of millions of frames costs only what
    is actually touched.  Compound pages are always order
    :data:`HUGE_PAGE_ORDER`: the head and tail flags are all the linkage
    the model needs.
    """

    def __init__(self, n_frames):
        if n_frames <= 0:
            raise InvalidArgumentError("machine needs at least one frame")
        self.n_frames = int(n_frames)
        self.refcount = np.zeros(self.n_frames, dtype=np.int32)
        self.flags = np.zeros(self.n_frames, dtype=np.uint16)

    # ---- single-frame helpers (used by page tables and small paths) ----

    def get_ref(self, pfn):
        """Current page refcount."""
        return self.refcount.item(pfn)

    def ref_inc(self, pfn):
        """Increment one page's refcount; returns the new value."""
        new = self.refcount.item(pfn) + 1
        self.refcount[pfn] = new
        return new

    def ref_dec(self, pfn, n=1):
        """Drop ``n`` references and return the new refcount; negative
        counts are bugs."""
        new = self.refcount.item(pfn) - n
        self.refcount[pfn] = new
        if new < 0:
            raise KernelBug(f"page refcount underflow on pfn {pfn}")
        return new

    def set_flags(self, pfn, flag_bits):
        """OR flag bits into a frame's flags."""
        self.flags[pfn] |= flag_bits

    def clear_flags(self, pfn, flag_bits):
        """Clear flag bits from a frame's flags."""
        self.flags[pfn] &= ~np.uint16(flag_bits)

    def has_flags(self, pfn, flag_bits):
        """Whether any of ``flag_bits`` is set (callers pass one flag)."""
        return bool(self.flags.item(pfn) & flag_bits)

    # ---- bulk (vectorised) operations used by fork and teardown ---------

    def ref_inc_bulk(self, pfns, *, _unique=False):
        """Increment refcounts for an array of pfns (duplicates allowed).

        ``_unique``: the caller already proved ``pfns`` duplicate-free.
        """
        add_at(self.refcount, pfns, 1, _unique)

    def ref_dec_bulk(self, pfns, *, _unique=False):
        """Decrement refcounts; return the pfns whose count reached zero.

        ``_unique``: the caller already proved ``pfns`` duplicate-free.
        """
        add_at(self.refcount, pfns, -1, _unique)
        counts = self.refcount[pfns]
        if np.any(counts < 0):
            bad = np.asarray(pfns)[counts < 0]
            raise KernelBug(f"page refcount underflow on pfns {bad[:8].tolist()}")
        zeroed = np.asarray(pfns)[counts == 0]
        # Duplicated pfns in the input can appear once per duplicate; a
        # unique pass keeps the free list clean.
        return np.unique(zeroed) if len(zeroed) else zeroed

    # ---- lifecycle -------------------------------------------------------

    def on_alloc(self, pfn, flag_bits):
        """Initialise metadata for a fresh order-0 allocation."""
        if self.refcount.item(pfn):
            raise KernelBug(f"allocating pfn {pfn} with live refcount")
        self.refcount[pfn] = 1
        self.flags[pfn] = flag_bits

    def on_alloc_bulk(self, pfns, flag_bits):
        """Initialise metadata for many fresh order-0 allocations."""
        if np.any(self.refcount[pfns] != 0):
            raise KernelBug("bulk-allocating frames with live refcounts")
        self.refcount[pfns] = 1
        self.flags[pfns] = flag_bits

    def on_alloc_compound(self, head_pfn, flag_bits):
        """Initialise a 2 MiB compound page: the head holds the reference,
        the tails carry only their flag."""
        span = slice(head_pfn, head_pfn + (1 << HUGE_PAGE_ORDER))
        if np.any(self.refcount[span] != 0):
            raise KernelBug("allocating compound page over live frames")
        self.flags[span] = flag_bits | PG_COMPOUND_TAIL
        self.refcount[head_pfn] = 1
        self.flags[head_pfn] = flag_bits | PG_COMPOUND_HEAD

    def on_free(self, pfn):
        """Reset metadata when a frame (or compound head) is freed."""
        span = pfn
        if self.flags[pfn] & PG_COMPOUND_HEAD:
            span = slice(pfn, pfn + (1 << HUGE_PAGE_ORDER))
        self.flags[span] = 0
        self.refcount[span] = 0

    def on_free_bulk(self, pfns):
        """Reset metadata for many order-0 frames at once."""
        self.flags[pfns] = 0
        self.refcount[pfns] = 0

    # ---- diagnostics -------------------------------------------------------

    def live_frames(self):
        """Number of frames with a non-zero refcount (for leak tests)."""
        return int(np.count_nonzero(self.refcount))

    def check_no_negative(self):
        """Assert no refcount anywhere went negative."""
        if np.any(self.refcount < 0):
            raise KernelBug("negative refcount detected")
