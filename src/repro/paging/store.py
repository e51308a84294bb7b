"""Packed backing storage for page-table entry arrays.

Every :class:`~repro.paging.table.PageTable` used to own a private
``np.zeros(512, dtype=uint64)``.  That representation is fine for one
table but defeats cross-table vectorisation: whole-address-space
operations (fork copies, exit teardown, write-protect sweeps) degenerate
into one small numpy call per table.  The :class:`EntryStore` packs all
entry arrays of one machine into a few large ``(rows, 512)`` uint64
blocks so that:

* a table's entries are a *row view* — every existing per-table code
  path keeps working unchanged;
* multi-table operations gather/scatter whole row sets with one fancy
  index per block (see :mod:`repro.kernel.fastpath`);
* allocating a table recycles a pre-zeroed row instead of calling
  ``np.zeros`` per node.

Rows live in fixed-size chunks that are *never reallocated or moved* —
growth appends a new chunk — so a row view handed out at table creation
stays valid for the table's whole life.  Released rows are re-zeroed
eagerly (a freed table must read as empty if anything stale pokes it)
and pushed on a free list for reuse.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import PTRS_PER_TABLE

#: Rows per chunk.  4 MiB of entries per chunk: small enough that the
#: many short-lived Machines built by the test suite stay cheap, large
#: enough that a multi-GiB address space spans only a handful of chunks.
CHUNK_ROWS = 1024

#: :meth:`EntryStore.release` zeroes a batch of at least this many rows
#: per chunk rather than row by row (the measured break-even).
RELEASE_PER_CHUNK = 16


class EntryStore:
    """A growable pool of packed 512-entry rows."""

    __slots__ = ("chunks", "_free", "_next_fresh")

    def __init__(self):
        self.chunks = [np.zeros((CHUNK_ROWS, PTRS_PER_TABLE),
                                dtype=np.uint64)]
        self._free = []          # recycled row ids (already zeroed)
        self._next_fresh = 0     # next never-used row id

    # ---- row lifecycle --------------------------------------------------

    def acquire(self):
        """Return a zeroed row id (recycled or fresh)."""
        if self._free:
            return self._free.pop()
        row = self._next_fresh
        if row >= len(self.chunks) * CHUNK_ROWS:
            self.chunks.append(np.zeros((CHUNK_ROWS, PTRS_PER_TABLE),
                                        dtype=np.uint64))
        self._next_fresh += 1
        return row

    def release(self, rows):
        """Re-zero rows and make them available for reuse, in order.

        A batch of :data:`RELEASE_PER_CHUNK` rows or more is zeroed with
        one fancy-index store per chunk; fewer rows cost less one by one.
        """
        if len(rows) >= RELEASE_PER_CHUNK:
            for chunk, indices, _ in self._by_chunk(rows):
                chunk[indices] = 0
        else:
            for row in rows:
                self.row_view(row).fill(0)
        self._free.extend(rows)

    def row_view(self, row):
        """The live ``uint64[512]`` view of one row (never moves)."""
        chunk, index = divmod(row, CHUNK_ROWS)
        return self.chunks[chunk][index]

    # ---- bulk access ----------------------------------------------------

    def _by_chunk(self, rows):
        """``(chunk, indices, mask)`` for each chunk holding some of
        ``rows``: the rows' indices within it and which of ``rows`` they
        are (``None`` when every row lies in one chunk)."""
        chunk_ids, indices = np.divmod(np.asarray(rows, dtype=np.int64),
                                       CHUNK_ROWS)
        first = int(chunk_ids[0])
        if (chunk_ids == first).all():
            return [(self.chunks[first], indices, None)]
        groups = []
        for cid in np.unique(chunk_ids).tolist():
            mask = chunk_ids == cid
            groups.append((self.chunks[cid], indices[mask], mask))
        return groups

    def gather(self, rows):
        """A ``(len(rows), 512)`` *copy* of the given rows' entries."""
        if len(rows) == 0:
            return np.empty((0, PTRS_PER_TABLE), dtype=np.uint64)
        groups = self._by_chunk(rows)
        if groups[0][2] is None:
            chunk, indices, _ = groups[0]
            return chunk[indices]
        out = np.empty((len(rows), PTRS_PER_TABLE), dtype=np.uint64)
        for chunk, indices, mask in groups:
            out[mask] = chunk[indices]
        return out

    def scatter(self, rows, matrix):
        """Write ``matrix`` (``(len(rows), 512)``) into the given rows."""
        if len(rows) != len(matrix):
            raise KernelBug("scatter shape mismatch")
        if len(rows) == 0:
            return
        for chunk, indices, mask in self._by_chunk(rows):
            chunk[indices] = matrix if mask is None else matrix[mask]
