"""Anonymous reverse mapping (rmap): a mapcount column plus a reverse
lookup done from the page tables at unmap time.

To evict a frame, reclaim must find and clear *every* PTE that maps it.
Only reclaim asks, so the bookkeeping fork and exit pay is kept to the
Linux minimum (``_mapcount``; ``anon_vma`` is walked only at unmap time):

* ``mapcount`` counts, per anonymous order-0 frame, the PTEs mapping it —
  one per table *object*, so a fork-shared table counts once.  A bulk
  call updates it in one numpy step; its 0 <-> mapped transitions drive
  the LRU in the order the pfns were passed.
* Every leaf table belongs to a *family*, kept in its
  ``PageTable.family``: a fresh table starts one; a classic-fork or
  table-COW copy, and an mremap target, join their source's.  A page
  records one *home* ``(family, index)`` when it goes from 0 to mapped.
  Copies and moves keep entry positions, so every PTE of the page sits
  at its home, as a Linux anon page keeps its ``index`` in its
  ``anon_vma`` when mremap moves the VMA.
* :meth:`RmapState.mappings` reads entry ``index`` of every live member
  of the home family; the matches must add up to ``mapcount``.

The interesting case is the paper's: a victim mapped through a PTE
table *shared* by on-demand-fork.  :func:`try_to_unmap` does not
unshare — one table object covers every sharer, and editing the shared
table in place unmaps the page from all of them at once (each sharer's
TLB is flushed through the table's own sharer list).
The in-place edit is the cheap side of the unshare-or-edit decision;
each shared table touched is counted in ``shared_table_unmaps`` and
charged to the cost model so benchmarks see the price.

File-backed pages never enter the rmap: the page cache owns them and
clean-cache reclaim handles their eviction separately.
"""

from __future__ import annotations
from ..sancheck.annotations import charge_deferred, must_hold

import numpy as np

from ..errors import KernelBug
from ..mem.page import (
    PAGE_SHIFT,
    PG_ANON,
    PG_COMPOUND_HEAD,
    PG_COMPOUND_TAIL,
    PG_FILE,
    PTRS_PER_TABLE,
    add_at,
)
from ..paging.entries import (
    INT_ACCESSED as _ACCESSED,
    INT_PFN_MASK,
    INT_PRESENT as _PRESENT,
    entry_pfn,
    make_swap_entry,
    present_mask,
)

_INELIGIBLE = PG_FILE | PG_COMPOUND_HEAD | PG_COMPOUND_TAIL
#: An eligible page's flags have PG_ANON and none of ``_INELIGIBLE``.
_ELIGIBLE_BITS = PG_ANON | _INELIGIBLE
#: Bits of a PTE that say "present, mapping this pfn".
_MAPS = INT_PFN_MASK | _PRESENT
_NOT_ACCESSED = ~_ACCESSED


class RmapState:
    """The mapcount and home columns, plus each family's live members."""

    def __init__(self, n_frames):
        #: PTEs (one per table object) mapping each anon order-0 frame.
        self.mapcount = np.zeros(n_frames, dtype=np.int32)
        #: ``family * 512 + index`` of every PTE mapping each mapped frame.
        self.home = np.zeros(n_frames, dtype=np.int64)
        #: family id -> {leaf-table pfn: PageTable} of its live members
        self.members = {}
        self._next_family = 0

    # ---- families: leaf-table lifecycle ---------------------------------

    def join(self, table, copy_of=None):
        """Enrol a new leaf table, in ``copy_of``'s family or a new one."""
        if copy_of is None:
            family = self._next_family
            self._next_family += 1
            self.members[family] = {}
        else:
            family = copy_of.family
        table.family = family
        self.members[family][table.pfn] = table

    def leave(self, tables):
        """Leaf tables were freed."""
        for table in tables:
            members = self.members[table.family]
            del members[table.pfn]
            if not members:
                del self.members[table.family]

    def rejoin(self, table, family):
        """Move a leaf table that maps no anonymous page into ``family``."""
        self.leave([table])
        table.family = family
        self.members.setdefault(family, {})[table.pfn] = table

    def home_of(self, table, index):
        """The home value of entry ``index`` of a leaf table."""
        return table.family * PTRS_PER_TABLE + index

    # ---- reverse lookup ---------------------------------------------------

    def mappings(self, pfn):
        """``(index, tables)``: the leaf tables whose entry ``index``
        maps ``pfn``, the members of its home family that do.

        Raises :class:`KernelBug` unless the PTEs found at the page's
        home add up to its mapcount.
        """
        count = self.mapcount.item(pfn)
        if count == 0:
            return 0, []
        family, index = divmod(self.home.item(pfn), PTRS_PER_TABLE)
        want = (int(pfn) << PAGE_SHIFT) | _PRESENT
        tables = [table for table in self.members.get(family, {}).values()
                  if table.entries.item(index) & _MAPS == want]
        if len(tables) != count:
            raise KernelBug(f"rmap: page {pfn} has mapcount {count} but "
                            f"{len(tables)} PTEs at its home")
        return index, tables

    def tables_for(self, pfn):
        """Pfns of the leaf tables mapping ``pfn``."""
        return [table.pfn for table in self.mappings(pfn)[1]]


def _eligible(pages, pfn):
    flags = pages.flags.item(pfn)
    return flags & _ELIGIBLE_BITS == PG_ANON


def _eligible_pfns(pages, pfns):
    pfns = np.asarray(pfns, dtype=np.int64)
    flags = pages.flags[pfns]
    mask = ((flags & PG_ANON) != 0) & ((flags & _INELIGIBLE) == 0)
    return pfns if mask.all() else pfns[mask], mask


def _unmapped(kernel, pfn, n):
    """``n`` PTEs of ``pfn`` are gone; leave the LRU at the last one."""
    rmap = kernel.rmap
    count = rmap.mapcount.item(pfn) - n
    if count < 0:
        raise KernelBug(f"rmap underflow: pfn {pfn}")
    rmap.mapcount[pfn] = count
    if count == 0:
        kernel.reclaim.lru_remove(pfn)


def rmap_add(kernel, pfn, leaf, index):
    """A fault or swap-in mapped ``pfn`` at ``leaf.entries[index]``."""
    rmap = kernel.rmap
    if rmap is None or not _eligible(kernel.pages, pfn):
        return
    count = rmap.mapcount.item(pfn) + 1
    rmap.mapcount[pfn] = count
    if count == 1:
        rmap.home[pfn] = rmap.home_of(leaf, index)
        kernel.reclaim.lru_add(pfn)


def rmap_remove(kernel, pfn):
    """One mapping of ``pfn`` gone (COW replacement, migration)."""
    if kernel.rmap is not None and _eligible(kernel.pages, pfn):
        _unmapped(kernel, pfn, 1)


def rmap_add_bulk(kernel, pfns, leaf=None, indices=None, homes=None, *,
                  _unique=False):
    """Count one new mapping of every eligible pfn in ``pfns``.

    ``pfns[i]`` is mapped at ``leaf.entries[indices[i]]`` (fills, COW,
    THP splits, snapshot restores), or at ``homes[i]`` (a batched fill
    spanning several tables); a page going from 0 to mapped records
    that position as its home.  Copies — classic fork and table COW —
    pass none: their tables joined the source's family and keep its
    entry positions, so every copied PTE sits at an existing home.
    ``_unique``: the caller already proved ``pfns`` duplicate-free.
    """
    rmap = kernel.rmap
    if rmap is None:
        return
    pfns, mask = _eligible_pfns(kernel.pages, pfns)
    mapcount = rmap.mapcount
    if homes is not None:
        homes = homes[mask]
    elif leaf is not None:
        homes = rmap.home_of(leaf, np.asarray(indices, dtype=np.int64)[mask])
    else:
        add_at(mapcount, pfns, 1, _unique)
        return
    fresh = np.nonzero(mapcount[pfns] == 0)[0]
    add_at(mapcount, pfns, 1, _unique)
    if len(fresh):
        if (mapcount[pfns[fresh]] > 1).any():
            # A fresh page mapped twice here: its first PTE is the home.
            _, once = np.unique(pfns[fresh], return_index=True)
            fresh = fresh[np.sort(once)]
        first = pfns[fresh]
        rmap.home[first] = homes[fresh]
        lru_add = kernel.reclaim.lru_add
        for pfn in first.tolist():
            lru_add(pfn)


def rmap_remove_bulk(kernel, pfns, *, _unique=False):
    """Drop one mapping of every eligible pfn in ``pfns`` (zap, teardown).

    ``_unique``: the caller already proved ``pfns`` duplicate-free.
    """
    rmap = kernel.rmap
    if rmap is None:
        return
    pfns, _ = _eligible_pfns(kernel.pages, pfns)
    mapcount = rmap.mapcount
    add_at(mapcount, pfns, -1, _unique)
    left = mapcount[pfns]
    if (left < 0).any():
        raise KernelBug(f"rmap underflow: pfn {int(pfns[left < 0][0])}")
    lru_remove = kernel.reclaim.lru_remove
    for pfn in pfns[left == 0].tolist():
        lru_remove(pfn)


def rmap_move(kernel, leaf, indices):
    """mremap moved PTEs to ``leaf.entries[indices]`` (an int64 array);
    each present one must still sit at its page's home, or the reverse
    lookup would miss it."""
    rmap = kernel.rmap
    if rmap is None:
        return
    entries = leaf.entries[indices]
    present = present_mask(entries)
    pfns, mask = _eligible_pfns(kernel.pages, entry_pfn(entries[present]))
    away = rmap.home[pfns] != rmap.home_of(leaf, indices[present][mask])
    if away.any():
        raise KernelBug(f"rmap: mremap moved page {int(pfns[away][0])} "
                        f"away from its home")


@charge_deferred("the LRU aging loops charge charge_lru_scan per probe")
def test_and_clear_referenced(kernel, pfn):
    """Aging probe: was any PTE mapping ``pfn`` accessed since last clear?

    Clears the accessed bits it finds (in place, even in shared tables —
    an attribute edit is invisible to the sharers' semantics, so no
    unshare decision applies here).
    """
    referenced = False
    index, tables = kernel.rmap.mappings(pfn)
    for leaf in tables:
        entries = leaf.entries
        entry = entries.item(index)
        if entry & _ACCESSED:
            referenced = True
            entries[index] = entry & _NOT_ACCESSED
    return referenced


@charge_deferred("frame release is priced by the zap/unmap cost models "
                 "at the call site")
def free_one_anon_frame(kernel, pfn):
    """Free one anonymous frame whose refcount reached zero."""
    if kernel.pages.flags[pfn] & PG_FILE:
        raise KernelBug("file page refcount dropped to zero outside the cache")
    kernel.pages.on_free(pfn)
    kernel.phys.zero(pfn)
    kernel.allocator.free(pfn, 0)


@must_hold("ptl")
def try_to_unmap(kernel, pfn, slot):
    """Replace every PTE mapping ``pfn`` with the swap entry for ``slot``.

    Each referencing table — dedicated or fork-shared — is edited in
    place; a shared table's edit unmaps the page from all sharers at
    once (one swap reference per table *object*, matching the ownership
    rule).  Every affected mm gets a full TLB flush.  Returns the page's
    remaining refcount (0 unless a swap-cache entry, snapshot, or pin
    still holds it); the frame is freed here when it hits zero.
    """
    entry_value = make_swap_entry(slot)
    index, tables = kernel.rmap.mappings(pfn)
    total = len(tables)
    for leaf in tables:
        kernel.san_access("pt", leaf.pfn)
        leaf.entries[index] = entry_value
        sharers = leaf.sharers
        if len(sharers) > 1:
            # The unshare-or-edit decision: edit in place, charge for it.
            kernel.stats.shared_table_unmaps += 1
            kernel.cost.charge_shared_table_unmap()
        # Unmapping changes translations under every sharer at once, and
        # any vCPU running one of them must be interrupted too.
        kernel.tlbs.shootdown_sharers(sharers)
    if total:
        kernel.swap_dup(slot, total)
        _unmapped(kernel, pfn, total)
    kernel.cost.charge_rmap_unmap(total)
    remaining = kernel.pages.ref_dec(pfn, total)
    if remaining == 0:
        free_one_anon_frame(kernel, pfn)
    return remaining
