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
  ``PageTable.family``: a fresh table starts one, a classic-fork or
  table-COW copy joins its source's.  Copies keep entry positions, so a
  page records one *home* ``(family, index)`` when it goes from 0 to
  mapped, and PTEs installed anywhere else (mremap moves, swap-cache
  hits through a moved swap entry) go on a per-page overflow list until
  the mapcount returns to 0.
* :meth:`RmapState.mappings` reads entry ``index`` of every live member
  of each home family; the matches must add up to ``mapcount``.

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
    make_swap_entry,
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
        #: ``family * 512 + index`` of each mapped frame's first mapping.
        self.home = np.zeros(n_frames, dtype=np.int64)
        #: pfn -> further homes, for mappings installed away from the home.
        self.overflow = {}
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

    def home_of(self, table, index):
        """The home value of entry ``index`` of a leaf table."""
        return table.family * PTRS_PER_TABLE + index

    def add_home(self, pfn, home):
        """A mapped page gained a PTE at ``home``; remember it if new."""
        if home != self.home.item(pfn):
            extra = self.overflow.setdefault(pfn, [])
            if home not in extra:
                extra.append(home)

    # ---- reverse lookup ---------------------------------------------------

    def mappings(self, pfn):
        """``{leaf table: [entry index, ...]}`` of every PTE mapping ``pfn``.

        Raises :class:`KernelBug` unless the PTEs found at the page's
        homes add up to its mapcount.
        """
        count = self.mapcount.item(pfn)
        found = {}
        if count == 0:
            return found
        want = (int(pfn) << PAGE_SHIFT) | _PRESENT
        matched = 0
        for home in (self.home.item(pfn), *self.overflow.get(pfn, ())):
            family, index = divmod(home, PTRS_PER_TABLE)
            for table in self.members.get(family, {}).values():
                if table.entries.item(index) & _MAPS == want:
                    found.setdefault(table, []).append(index)
                    matched += 1
        if matched != count:
            raise KernelBug(f"rmap: page {pfn} has mapcount {count} but "
                            f"{matched} PTEs at its homes")
        return found

    def tables_for(self, pfn):
        """Pfns of the leaf tables mapping ``pfn``."""
        return [table.pfn for table in self.mappings(pfn)]


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
        rmap.overflow.pop(pfn, None)
        kernel.reclaim.lru_remove(pfn)


def rmap_add(kernel, pfn, leaf, index):
    """A fault or swap-in mapped ``pfn`` at ``leaf.entries[index]``."""
    rmap = kernel.rmap
    if rmap is None or not _eligible(kernel.pages, pfn):
        return
    home = rmap.home_of(leaf, index)
    count = rmap.mapcount.item(pfn) + 1
    rmap.mapcount[pfn] = count
    if count == 1:
        rmap.home[pfn] = home
        kernel.reclaim.lru_add(pfn)
    else:
        rmap.add_home(pfn, home)


def rmap_remove(kernel, pfn):
    """One mapping of ``pfn`` gone (COW replacement, migration)."""
    if kernel.rmap is not None and _eligible(kernel.pages, pfn):
        _unmapped(kernel, pfn, 1)


def rmap_add_bulk(kernel, pfns, leaf=None, indices=None, homes=None, *,
                  _unique=False):
    """Count one new mapping of every eligible pfn in ``pfns``.

    ``pfns[i]`` is mapped at ``leaf.entries[indices[i]]`` (fills, COW,
    THP splits, snapshot restores), or at ``homes[i]`` (a batched fill
    spanning several tables).  Copies — classic fork and table COW —
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
    away = np.nonzero(rmap.home[pfns] != homes)[0]
    for pfn, home in zip(pfns[away].tolist(), homes[away].tolist()):
        rmap.add_home(pfn, home)


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
    overflow = rmap.overflow
    lru_remove = kernel.reclaim.lru_remove
    for pfn in pfns[left == 0].tolist():
        overflow.pop(pfn, None)
        lru_remove(pfn)


def rmap_move(kernel, pfn, leaf, index):
    """A mapping of ``pfn`` moved to ``leaf.entries[index]`` (mremap)."""
    rmap = kernel.rmap
    if rmap is not None and _eligible(kernel.pages, pfn):
        rmap.add_home(pfn, rmap.home_of(leaf, index))


@charge_deferred("the LRU aging loops charge charge_lru_scan per probe")
def test_and_clear_referenced(kernel, pfn):
    """Aging probe: was any PTE mapping ``pfn`` accessed since last clear?

    Clears the accessed bits it finds (in place, even in shared tables —
    an attribute edit is invisible to the sharers' semantics, so no
    unshare decision applies here).
    """
    referenced = False
    for leaf, indices in kernel.rmap.mappings(pfn).items():
        entries = leaf.entries
        for index in indices:
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
    total = 0
    for leaf, indices in kernel.rmap.mappings(pfn).items():
        kernel.san_access("pt", leaf.pfn)
        for index in indices:
            leaf.entries[index] = entry_value
        n = len(indices)
        kernel.swap_dup(slot, n)
        sharers = leaf.sharers
        if len(sharers) > 1:
            # The unshare-or-edit decision: edit in place, charge for it.
            kernel.stats.shared_table_unmaps += 1
            kernel.cost.charge_shared_table_unmap()
        # Unmapping changes translations under every sharer at once, and
        # any vCPU running one of them must be interrupted too.
        kernel.tlbs.shootdown_sharers(sharers)
        total += n
    if total:
        _unmapped(kernel, pfn, total)
    kernel.cost.charge_rmap_unmap(total)
    remaining = kernel.pages.ref_dec(pfn, total)
    if remaining == 0:
        free_one_anon_frame(kernel, pfn)
    return remaining
