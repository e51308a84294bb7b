"""Property-based buddy-allocator testing: no frame ever double-owned,
and the allocator hands out exactly the frames the per-frame-array
allocator it replaced did."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
import hypothesis.strategies as st

from repro.errors import InvalidArgumentError, KernelBug
from repro.mem import BuddyAllocator, OutOfFramesError
from repro.mem.buddy import MAX_ORDER, _member_mask
from repro.trace import points

N_FRAMES = 1 << 11


class BuddyMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.buddy = BuddyAllocator(N_FRAMES)
        self.singles = []
        self.blocks = []

    @rule(n=st.integers(1, 128))
    def alloc_bulk(self, n):
        if self.buddy.free_frames < n:
            return
        pfns = self.buddy.alloc_bulk(n)
        assert len(np.unique(pfns)) == n
        self.singles.extend(pfns.tolist())

    @rule(data=st.data())
    def free_bulk_some(self, data):
        if not self.singles:
            return
        k = data.draw(st.integers(1, len(self.singles)))
        indices = data.draw(
            st.lists(st.integers(0, len(self.singles) - 1), min_size=k,
                     max_size=k, unique=True))
        chunk = [self.singles[i] for i in indices]
        for i in sorted(indices, reverse=True):
            self.singles.pop(i)
        self.buddy.free_bulk(np.asarray(chunk, dtype=np.int64))

    @rule(order=st.integers(0, 6))
    def alloc_block(self, order):
        try:
            pfn = self.buddy.alloc(order)
        except OutOfFramesError:
            return
        assert pfn % (1 << order) == 0
        self.blocks.append((pfn, order))

    @rule(data=st.data())
    def free_block(self, data):
        if not self.blocks:
            return
        index = data.draw(st.integers(0, len(self.blocks) - 1))
        pfn, order = self.blocks.pop(index)
        self.buddy.free(pfn, order)

    @rule(index=st.integers(0, 10_000))
    def free_single(self, index):
        if not self.singles:
            return
        pfn = self.singles.pop(index % len(self.singles))
        self.buddy.free(pfn)

    @invariant()
    def ownership_is_exclusive(self):
        if not hasattr(self, "buddy"):
            return
        self.buddy.check_consistency()
        allocated = len(self.singles) + sum(1 << o for _, o in self.blocks)
        assert self.buddy.free_frames == N_FRAMES - allocated


TestBuddyProperties = BuddyMachine.TestCase
TestBuddyProperties.settings = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# --------------------------------------------------------------------- #
# Equivalence with the per-frame-array allocator

# The allocator as it was when it kept ``_free_order`` and ``_free_stamp``
# columns per frame, verbatim: the reference for the per-block state.

class ArrayBuddyAllocator:
    """Allocate and free physical frames by power-of-two blocks."""

    def __init__(self, n_frames):
        if n_frames <= 0:
            raise InvalidArgumentError("allocator needs at least one frame")
        self.n_frames = int(n_frames)
        self.free_frames = 0
        self._free_lists = [[] for _ in range(MAX_ORDER + 1)]
        # _free_order[pfn] = order if pfn heads a live free block, else -1.
        self._free_order = np.full(self.n_frames, -1, dtype=np.int8)
        # Lazy removal needs more than the order check: a pfn can be
        # invalidated and later re-freed at the same order, which would
        # revalidate its stale list entry (and allow double allocation).
        # Each insertion therefore carries a unique stamp; an entry is live
        # only if it carries the pfn's *current* stamp.
        self._free_stamp = np.zeros(self.n_frames, dtype=np.int64)
        self._stamp_counter = 0
        # _alloc_order[pfn] = order if pfn heads a live allocation, else -1.
        self._alloc_order = np.full(self.n_frames, -1, dtype=np.int8)
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
        self._free_order[pfn] = order
        self._free_stamp[pfn] = self._stamp_counter
        self._free_lists[order].append((pfn, self._stamp_counter))
        self.free_frames += 1 << order

    def _pop_free(self, order):
        """Pop a live block of exactly ``order``, skipping invalidated entries."""
        lst = self._free_lists[order]
        while lst:
            pfn, stamp = lst.pop()
            if self._free_order[pfn] == order and self._free_stamp[pfn] == stamp:
                self._free_order[pfn] = -1
                self.free_frames -= 1 << order
                return pfn
        return None

    def _invalidate_free(self, pfn, order):
        """Lazily remove a known-free block (it will be skipped at pop time)."""
        if self._free_order[pfn] != order:
            raise KernelBug(f"invalidating pfn {pfn} that is not free at order {order}")
        self._free_order[pfn] = -1
        self.free_frames -= 1 << order

    # ---- single-block interface ----------------------------------------------

    def alloc(self, order=0):
        """Allocate a block of ``2**order`` frames; return the head pfn."""
        if not 0 <= order <= MAX_ORDER:
            raise InvalidArgumentError(f"order {order} out of range")
        for o in range(order, MAX_ORDER + 1):
            pfn = self._pop_free(o)
            if pfn is None:
                continue
            # Split back down, returning upper halves to the free lists.
            while o > order:
                o -= 1
                self._insert_free(pfn + (1 << o), o)
            self._alloc_order[pfn] = order
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
        recorded = int(self._alloc_order[pfn])
        if recorded < 0:
            raise KernelBug(f"double free or bad free of pfn {pfn}")
        if order is not None and order != recorded:
            raise KernelBug(f"freeing pfn {pfn} with order {order}, allocated {recorded}")
        order = recorded
        self._alloc_order[pfn] = -1
        if points.enabled:
            # Bulk paths are deliberately silent: a single event per
            # million-frame free_bulk would still be noise, per-frame
            # events would be the perturbation tracing must not cause.
            points.tracepoint("buddy.free", pfn=pfn, order=order)
        # Coalesce with free buddies as far as possible.
        while order < MAX_ORDER:
            buddy = pfn ^ (1 << order)
            if buddy >= self.n_frames or self._free_order[buddy] != order:
                break
            self._invalidate_free(buddy, order)
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
        self._alloc_order[pfns] = 0
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
        if np.any(self._alloc_order[pfns] != 0):
            raise KernelBug("free_bulk on frames not allocated at order 0")
        self._alloc_order[pfns] = -1
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

    @property
    def used_frames(self):
        """Frames currently allocated."""
        return self.n_frames - self.free_frames

    def check_consistency(self):
        """Expensive invariant check used by tests: no frame double-owned."""
        owned = np.zeros(self.n_frames, dtype=bool)
        for order in range(MAX_ORDER + 1):
            for pfn, stamp in self._free_lists[order]:
                if self._free_order[pfn] != order or self._free_stamp[pfn] != stamp:
                    continue  # lazily invalidated entry
                span = slice(pfn, pfn + (1 << order))
                if owned[span].any():
                    raise KernelBug(f"free block at {pfn} overlaps another block")
                owned[span] = True
        alloc_heads = np.nonzero(self._alloc_order >= 0)[0]
        for pfn in alloc_heads.tolist():
            span = slice(pfn, pfn + (1 << int(self._alloc_order[pfn])))
            if owned[span].any():
                raise KernelBug(f"allocation at {pfn} overlaps a free block")
            owned[span] = True
        if not owned.all():
            raise KernelBug("orphaned frames (neither free nor allocated)")


def live_free_blocks(reference):
    """The reference's live free heads as ``{pfn: stamp << 4 | order}``."""
    heads = np.flatnonzero(reference._free_order >= 0).tolist()
    return {pfn: int(reference._free_stamp[pfn]) << 4
            | int(reference._free_order[pfn]) for pfn in heads}


class BuddyEquivalence(RuleBasedStateMachine):
    """Both allocators take the same calls; every call must return the
    same pfns (or fail alike), and afterwards the free lists, stamps and
    allocation orders must agree."""

    @initialize(n_frames=st.sampled_from([1 << 11, 1500, 3 << 10]))
    def setup(self, n_frames):
        self.new = BuddyAllocator(n_frames)
        self.ref = ArrayBuddyAllocator(n_frames)
        self.singles = []
        self.blocks = []

    def _both(self, call, *args):
        outcomes = []
        for allocator in (self.new, self.ref):
            try:
                outcomes.append(("ok", getattr(allocator, call)(*args)))
            except OutOfFramesError:
                outcomes.append(("oom", None))
        (new_kind, new_out), (ref_kind, ref_out) = outcomes
        assert new_kind == ref_kind
        if isinstance(new_out, np.ndarray):
            assert np.array_equal(new_out, ref_out)
        else:
            assert new_out == ref_out
        return new_out

    @rule(order=st.integers(0, MAX_ORDER))
    def alloc(self, order):
        pfn = self._both("alloc", order)
        if pfn is not None:
            self.blocks.append((pfn, order))

    @rule(n=st.integers(1, 700))
    def alloc_bulk(self, n):
        if n > self.new.free_frames:
            return
        self.singles.extend(self._both("alloc_bulk", n).tolist())

    @rule(data=st.data())
    def free(self, data):
        if not self.blocks:
            return
        index = data.draw(st.integers(0, len(self.blocks) - 1))
        pfn, order = self.blocks.pop(index)
        self._both("free", pfn, order)

    @rule(index=st.integers(0, 10_000))
    def free_single(self, index):
        if not self.singles:
            return
        self._both("free", self.singles.pop(index % len(self.singles)))

    @rule(data=st.data(), contiguous=st.booleans())
    def free_bulk(self, data, contiguous):
        if not self.singles:
            return
        if contiguous:
            # A run of neighbouring frames takes the closed-form path.
            ordered = sorted(self.singles)
            lo = data.draw(st.integers(0, len(ordered) - 1))
            hi = data.draw(st.integers(lo + 1, len(ordered)))
            chunk = ordered[lo:hi]
        else:
            chunk = data.draw(st.lists(st.sampled_from(self.singles),
                                       min_size=1, unique=True))
        taken = set(chunk)
        self.singles = [pfn for pfn in self.singles if pfn not in taken]
        self._both("free_bulk", np.asarray(chunk, dtype=np.int64))

    @invariant()
    def same_state(self):
        if not hasattr(self, "new"):
            return
        new, ref = self.new, self.ref
        assert new.free_frames == ref.free_frames
        assert new._stamp_counter == ref._stamp_counter
        for order in range(MAX_ORDER + 1):
            entries = new._free_lists[order]
            assert all(tag & 0xF == order for _, tag in entries)
            assert ([(pfn, tag >> 4) for pfn, tag in entries]
                    == ref._free_lists[order])
        assert new._free_heads == live_free_blocks(ref)
        assert np.array_equal(new._alloc_order.astype(np.int64) - 1,
                              ref._alloc_order)
        new.check_consistency()


TestBuddyEquivalence = BuddyEquivalence.TestCase
TestBuddyEquivalence.settings = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestFreshAllocator:
    def test_state_is_per_block(self):
        """The 103 GB fig7 showcase machine's allocator starts with one
        free head per 4 MiB block and an all-zero allocation column, so
        building it commits no per-frame host memory."""
        allocator = BuddyAllocator(27_000_832)
        assert not allocator._alloc_order.any()
        assert len(allocator._free_heads) == 27_000_832 >> MAX_ORDER == 26_368
        assert allocator.free_frames == 27_000_832
