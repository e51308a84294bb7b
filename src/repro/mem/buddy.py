"""A binary buddy allocator over the machine's physical frames.

This is the simulator's ``alloc_pages``: page tables, anonymous pages, and
2 MiB compound (huge) pages all come from here.  The design follows the
kernel's buddy system: per-order free lists, block splitting on allocation,
and buddy coalescing on free.  Removal of a coalesced buddy from the middle
of a free list is done lazily (the block is invalidated and skipped when it
surfaces), which keeps every operation O(log n).

Free-block state is kept per block, not per frame: one dict maps each live
free block's head pfn to the tag of its free-list entry, so a machine's
allocator holds a few bytes per 4 MiB block until frames are used.  The
only per-frame column is the allocation order, one zero-initialised byte
per frame that commits host memory only where frames are handed out.

Two bulk paths exist because memory-intensive workloads allocate and free
millions of order-0 frames per run, which must not devolve into millions of
Python-level operations:

* :meth:`alloc_bulk` carves large free blocks into ``numpy`` pfn ranges;
* :meth:`free_bulk` re-forms maximal aligned power-of-two blocks from a pfn
  array with vectorised pairing before reinserting them.

``free_bulk`` does not attempt cross-coalescing with blocks that were
already free; that costs only fragmentation, never correctness, and the
unit tests pin down the invariant that no frame is ever double-owned.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, KernelBug, OutOfMemoryError
from ..trace import points

MAX_ORDER = 10  # 4 MiB max block, matching Linux's default


def _member_mask(sorted_arr, values):
    """Boolean mask: which ``values`` appear in ``sorted_arr``.

    Equivalent to ``np.isin(values, sorted_arr, assume_unique=True)`` but
    O(len(values) * log len(sorted_arr)) via binary search — ``np.isin``
    re-sorts both operands on every call, which made it the single
    hottest function in teardown-heavy benchmarks.
    """
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == sorted_arr.size] = 0
    return sorted_arr[idx] == values


class OutOfFramesError(OutOfMemoryError):
    """The buddy allocator has no block large enough for the request."""


class BuddyAllocator:
    """Allocate and free physical frames by power-of-two blocks."""

    def __init__(self, n_frames):
        if n_frames <= 0:
            raise InvalidArgumentError("allocator needs at least one frame")
        self.n_frames = int(n_frames)
        self.free_frames = 0
        # Per-order LIFO free lists of (head pfn, tag) entries.
        self._free_lists = [[] for _ in range(MAX_ORDER + 1)]
        # Head pfn of every live free block -> the tag of its list entry.
        # Removal is lazy, so a list may hold stale entries: a pfn can be
        # invalidated and later re-freed at the same order, which would
        # revalidate a stale entry (and allow double allocation).  Each
        # insertion therefore draws a unique stamp, and the tag is
        # ``stamp << 4 | order``: an entry is live only if its tag is its
        # pfn's current one, and the low bits give a free buddy's order.
        self._free_heads = {}
        self._stamp_counter = 0
        # _alloc_order[pfn] = order + 1 if pfn heads a live allocation,
        # else 0 (see allocated_order).
        self._alloc_order = np.zeros(self.n_frames, dtype=np.int8)
        # Optional KASAN-style interceptor (see repro.sancheck.kasan):
        # when set, frees are poisoned + quarantined instead of returned
        # to the free lists immediately.
        self.sanitizer = None
        self._seed_free_lists()

    def _seed_free_lists(self):
        blocks = []
        pfn = 0
        while pfn < self.n_frames:
            order = MAX_ORDER
            while order > 0 and (pfn % (1 << order) != 0 or pfn + (1 << order) > self.n_frames):
                order -= 1
            blocks.append((pfn, order))
            pfn += 1 << order
        # Free lists are LIFO; seed high addresses first so allocation
        # proceeds from pfn 0 upward (keeps early allocations predictable,
        # e.g. the machine's reserved frame 0).
        for pfn, order in reversed(blocks):
            self._insert_free(pfn, order)

    # ---- free-list plumbing ------------------------------------------------

    def _insert_free(self, pfn, order):
        self._stamp_counter += 1
        tag = self._stamp_counter << 4 | order
        self._free_heads[pfn] = tag
        self._free_lists[order].append((pfn, tag))
        self.free_frames += 1 << order

    def _pop_free(self, order):
        """Pop a live block of exactly ``order``, skipping invalidated entries."""
        lst = self._free_lists[order]
        heads = self._free_heads
        while lst:
            pfn, tag = lst.pop()
            if heads.get(pfn) == tag:
                del heads[pfn]
                self.free_frames -= 1 << order
                return pfn
        return None

    # ---- single-block interface ----------------------------------------------

    def alloc(self, order=0):
        """Allocate a block of ``2**order`` frames; return the head pfn."""
        if not 0 <= order <= MAX_ORDER:
            raise InvalidArgumentError(f"order {order} out of range")
        heads = self._free_heads
        for o in range(order, MAX_ORDER + 1):
            lst = self._free_lists[o]
            while lst:
                pfn, tag = lst.pop()
                if heads.get(pfn) != tag:
                    continue  # lazily invalidated entry
                del heads[pfn]
                self.free_frames -= 1 << o
                # Split back down, returning upper halves to the free lists.
                while o > order:
                    o -= 1
                    self._insert_free(pfn + (1 << o), o)
                self._alloc_order[pfn] = order + 1
                if points.enabled:
                    points.tracepoint("buddy.alloc", pfn=pfn, order=order)
                return pfn
        raise OutOfFramesError(
            f"no free block of order {order} ({self.free_frames} frames free)"
        )

    def free(self, pfn, order=None):
        """Free a block previously returned by :meth:`alloc` or bulk paths."""
        if self.sanitizer is not None:
            self.sanitizer.intercept_free(pfn, order)
            return
        self._free_now(pfn, order)

    def _free_now(self, pfn, order=None):
        """The real free path (quarantine eviction enters here directly)."""
        recorded = self._alloc_order.item(pfn) - 1
        if recorded < 0:
            raise KernelBug(f"double free or bad free of pfn {pfn}")
        if order is not None and order != recorded:
            raise KernelBug(f"freeing pfn {pfn} with order {order}, allocated {recorded}")
        order = recorded
        self._alloc_order[pfn] = 0
        if points.enabled:
            # Bulk paths are deliberately silent: a single event per
            # million-frame free_bulk would still be noise, per-frame
            # events would be the perturbation tracing must not cause.
            points.tracepoint("buddy.free", pfn=pfn, order=order)
        # Coalesce with free buddies as far as possible; the buddy's list
        # entry goes stale and is skipped when it surfaces.
        heads = self._free_heads
        while order < MAX_ORDER:
            buddy = pfn ^ (1 << order)
            tag = heads.get(buddy)
            if tag is None or (tag & 0xF) != order:
                break
            del heads[buddy]
            self.free_frames -= 1 << order
            pfn = min(pfn, buddy)
            order += 1
        self._insert_free(pfn, order)

    # ---- bulk interface ---------------------------------------------------------

    def alloc_bulk(self, n):
        """Allocate ``n`` order-0 frames; return their pfns as an int64 array.

        Frames come from whole free blocks carved greedily from the largest
        order downwards; any remainder of the last block is returned to the
        free lists.  Each frame is recorded as an order-0 allocation so it
        can be freed individually or via :meth:`free_bulk`.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        if n > self.free_frames:
            raise OutOfFramesError(f"requested {n} frames, {self.free_frames} free")
        chunks = []
        remaining = n
        order = MAX_ORDER
        while remaining > 0:
            pfn = self._pop_free(order)
            if pfn is None:
                if order == 0:
                    # free_frames said there was room; lists must deliver.
                    raise KernelBug("free-frame accounting out of sync")
                order -= 1
                continue
            size = 1 << order
            take = min(size, remaining)
            chunks.append(np.arange(pfn, pfn + take, dtype=np.int64))
            remaining -= take
            leftover = pfn + take
            # Return the unused tail of the block as aligned sub-blocks.
            end = pfn + size
            while leftover < end:
                o = 0
                while (
                    o < MAX_ORDER
                    and leftover % (1 << (o + 1)) == 0
                    and leftover + (1 << (o + 1)) <= end
                ):
                    o += 1
                self._insert_free(leftover, o)
                leftover += 1 << o
        pfns = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        self._alloc_order[pfns] = 1
        return pfns

    def free_bulk(self, pfns):
        """Free an array of order-0 frames, re-forming large blocks.

        Vectorised: sorts the pfns, then repeatedly pairs aligned buddies to
        promote runs to higher orders, and finally reinserts the resulting
        block heads.
        """
        pfns = np.asarray(pfns, dtype=np.int64)
        if pfns.size == 0:
            return
        if self.sanitizer is not None:
            # Route every frame through the interceptor so bulk frees get
            # the same double-free/poisoning treatment as single frees.
            for pfn in pfns.tolist():
                self.sanitizer.intercept_free(pfn, 0)
            return
        if np.any(self._alloc_order[pfns] != 1):
            raise KernelBug("free_bulk on frames not allocated at order 0")
        self._alloc_order[pfns] = 0
        heads = np.sort(pfns)
        if int(heads[-1]) - int(heads[0]) == heads.size - 1:
            # Contiguous run: the pairing loop's behaviour is a closed-form
            # function of (start, length), so replay its exact insertion
            # sequence with scalar arithmetic instead of ~3 binary searches
            # per order.  Teardown-heavy benchmarks free almost exclusively
            # contiguous per-slot runs, making this the hot shape.
            self._free_contiguous_run(int(heads[0]), heads.size)
            return
        order = 0
        while order < MAX_ORDER and heads.size > 1:
            step = 1 << order
            aligned = heads[heads % (2 * step) == 0]
            if aligned.size == 0:
                break
            # A block at `h` merges with its buddy `h + step` when both are
            # present in the current free set.  ``heads`` stays sorted
            # (``merged`` is a subsequence of it), so membership tests are
            # binary searches rather than ``np.isin`` re-sorts.
            partners = aligned + step
            merged_mask = _member_mask(heads, partners)
            merged = aligned[merged_mask]
            if merged.size == 0:
                break
            consumed_mask = (_member_mask(merged, heads)
                             | _member_mask(merged + step, heads))
            keep = heads[~consumed_mask]
            for h in keep.tolist():
                self._insert_free(h, order)
            heads = merged
            order += 1
        for h in heads.tolist():
            self._insert_free(h, order)

    def _free_contiguous_run(self, start, cnt):
        """Replay the pairing loop for ``heads == range(start, start + cnt)``.

        Produces the identical ``_insert_free`` call sequence (same blocks,
        same order, same stamps) as the vectorised loop: at each order the
        surviving heads stay one contiguous arithmetic progression, whose
        unpaired boundary heads are the only insertions.
        """
        step = 1
        order = 0
        while order < MAX_ORDER and cnt > 1:
            pair = 2 * step
            last = start + (cnt - 1) * step
            first_aligned = start if start % pair == 0 else start + step
            if first_aligned > last - step:
                break  # no pair merges: everything reinserts at this order
            if start % pair != 0:
                self._insert_free(start, order)
            if last % pair == 0:
                self._insert_free(last, order)
            cnt = (last - step - first_aligned) // pair + 1
            start = first_aligned
            step = pair
            order += 1
        for i in range(cnt):
            self._insert_free(start + i * step, order)

    # ---- diagnostics ----------------------------------------------------------

    def allocated_order(self, pfn):
        """The order of the live allocation ``pfn`` heads, or -1."""
        return self._alloc_order.item(pfn) - 1

    @property
    def used_frames(self):
        """Frames currently allocated."""
        return self.n_frames - self.free_frames

    def check_consistency(self):
        """Expensive invariant check used by tests: no frame double-owned."""
        owned = np.zeros(self.n_frames, dtype=bool)
        heads = self._free_heads
        live = 0
        for order in range(MAX_ORDER + 1):
            for pfn, tag in self._free_lists[order]:
                if heads.get(pfn) != tag:
                    continue  # lazily invalidated entry
                live += 1
                span = slice(pfn, pfn + (1 << order))
                if owned[span].any():
                    raise KernelBug(f"free block at {pfn} overlaps another block")
                owned[span] = True
        if live != len(heads):
            raise KernelBug("free block without a live free-list entry")
        alloc_heads = np.flatnonzero(self._alloc_order)
        # Order-0 allocations (nearly all of them) are checked at once;
        # a larger block overlapping one of them is caught in the loop.
        single = self._alloc_order[alloc_heads] == 1
        frames = alloc_heads[single]
        clash = frames[owned[frames]]
        if len(clash):
            raise KernelBug(f"allocation at {clash[0]} overlaps a free block")
        owned[frames] = True
        for pfn in alloc_heads[~single].tolist():
            span = slice(pfn, pfn + (1 << self.allocated_order(pfn)))
            if owned[span].any():
                raise KernelBug(f"allocation at {pfn} overlaps a free block")
            owned[span] = True
        if not owned.all():
            raise KernelBug("orphaned frames (neither free nor allocated)")
