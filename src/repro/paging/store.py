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
        """Re-zero rows and make them available for reuse, in order."""
        for row in rows:
            self.row_view(row).fill(0)
        self._free.extend(rows)

    def row_view(self, row):
        """The live ``uint64[512]`` view of one row (never moves)."""
        chunk, index = divmod(row, CHUNK_ROWS)
        return self.chunks[chunk][index]

    # ---- bulk access ----------------------------------------------------

    def gather(self, rows):
        """A ``(len(rows), 512)`` *copy* of the given rows' entries."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty((0, PTRS_PER_TABLE), dtype=np.uint64)
        chunk_ids, indices = np.divmod(rows, CHUNK_ROWS)
        first = int(chunk_ids[0])
        if (chunk_ids == first).all():
            return self.chunks[first][indices]
        out = np.empty((rows.size, PTRS_PER_TABLE), dtype=np.uint64)
        for cid in np.unique(chunk_ids).tolist():
            mask = chunk_ids == cid
            out[mask] = self.chunks[cid][indices[mask]]
        return out

    def scatter(self, rows, matrix):
        """Write ``matrix`` (``(len(rows), 512)``) into the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size != len(matrix):
            raise KernelBug("scatter shape mismatch")
        if rows.size == 0:
            return
        chunk_ids, indices = np.divmod(rows, CHUNK_ROWS)
        first = int(chunk_ids[0])
        if (chunk_ids == first).all():
            self.chunks[first][indices] = matrix
            return
        for cid in np.unique(chunk_ids).tolist():
            mask = chunk_ids == cid
            self.chunks[cid][indices[mask]] = matrix[mask]
