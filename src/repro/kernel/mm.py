"""The per-process memory descriptor (``mm_struct``).

Owns the paging tree root (PGD) and the VMA list; its counters (RSS,
page-table counts) are read from the tables.  Heavy operations —
population, fault handling, fork copies, teardown — live in sibling
modules and operate *on* an ``MMStruct``; this module provides the
structural plumbing they share:

* allocating and freeing page-table nodes (page tables are pages: each is
  backed by a frame flagged ``PG_PAGETABLE``, and a leaf table starts
  with its allocating mm as its one sharer, the paper's §3.5 count);
* walking/creating the upper levels down to a PMD slot;
* the two walks of the tree every other module takes:
  :meth:`MMStruct.pmd_tables` (each 1 GiB PMD table) and
  :meth:`MMStruct.present_slots` (each present 2 MiB PMD slot, the unit
  at which On-demand-fork shares, copies, and zaps).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from ..sancheck.annotations import charge_deferred, must_hold
from ..mem.page import (
    HUGE_PAGE_ORDER,
    HUGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PG_FILE,
    PG_PAGETABLE,
    PTRS_PER_TABLE,
)
from ..paging.entries import (
    BIT_PS,
    INT_PFN_MASK,
    INT_PRESENT,
    entry_pfn,
    is_huge,
    is_present,
    make_entry,
    present_mask,
    present_pfns,
)
from ..paging.table import (
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    LEVEL_SPAN,
    PMD_REGION_SIZE,
    PageTable,
    VA_BITS,
    VA_LIMIT,
    table_index,
)
from ..paging.tlb import TLB
from .vma import VMAList

#: Default placement window for anonymous mappings (mirrors the mmap area
#: of a 48-bit address space; low enough to leave room for fixed mappings).
MMAP_FLOOR = 0x0000_1000_0000_0000 >> 4   # 0x100_0000_0000
MMAP_CEILING = VA_LIMIT


def _present_in(table, base, start, end):
    """Indices of ``table``'s present entries whose span overlaps
    ``[start, end)``, for a table mapping from ``base``."""
    span = LEVEL_SPAN[table.level]
    lo = max(start - base, 0) // span
    hi = min((end - base + span - 1) // span, PTRS_PER_TABLE)
    return (np.nonzero(present_mask(table.entries[lo:hi]))[0] + lo).tolist()


class MMStruct:
    """One process's address space."""

    @charge_deferred("address-space construction (PGD alloc) is priced "
                     "by fork/boot via their fixed setup costs")
    def __init__(self, kernel, owner_pid=0):
        self.kernel = kernel
        self.owner_pid = owner_pid
        # mm_users: tasks referencing this address space (vfork/CLONE_VM
        # children borrow it; teardown happens when the count hits zero).
        self.users = 1
        self.vmas = VMAList()
        self.tlb = TLB()
        self.dead = False
        # Set once this address space has been part of an odfork (either
        # side).  COW faults in such lineages get the §5.2.4 cache-warmth
        # discount: shared tables and untouched struct pages leave more of
        # the cache hierarchy to user data.
        self.odf_lineage = False
        # NUMA allocation policy (set_mempolicy); None means first-touch
        # on the machine's topology default.  The interleave cursor round-
        # robins single-page allocations across nodes.
        self.mempolicy = (None if kernel.numa is None
                          else kernel.numa.default_mempolicy())
        self._interleave_next = 0
        # True once any of this mm's tables gained Mitosis replicas:
        # shootdowns then fan out to every replica-hosting node.
        self.replicated = False
        # Last fallible step: an injected (or real) OOM here leaves no
        # half-built descriptor behind — nothing above allocates.
        kernel.failpoints.hit("mm.pgd_alloc")
        self.pgd = self.alloc_table(LEVEL_PGD)

    # ---- page-table node lifecycle -------------------------------------

    @charge_deferred("callers charge table construction — "
                     "charge_pte_table_alloc / the upper-table models")
    def alloc_table(self, level, copy_of=None):
        """Allocate a page-table node backed by a fresh frame.

        A leaf (PTE) table starts with this mm as its one sharer: the
        sharer list's length is the §3.5 reference count, which guards
        both premature free and the fault handler's shared/dedicated
        decision.  A leaf table given ``copy_of``'s entries in place (a
        copy or an mremap target) joins that table's rmap family.
        """
        kernel = self.kernel
        pfn = kernel.alloc_table_frame()
        kernel.pages.on_alloc(pfn, PG_PAGETABLE)
        is_leaf = level == LEVEL_PTE
        table = PageTable(level, pfn, kernel.entry_store,
                          [self] if is_leaf else None)
        kernel.register_table(table)
        if is_leaf and kernel.rmap is not None:
            kernel.rmap.join(table, copy_of)
        if kernel.mitosis is not None:
            # Mitosis: every fresh table grows per-node replicas (best
            # effort — on OOM the table simply runs unreplicated).
            kernel.mitosis.replicate_table(self, table)
        return table

    def adopt_leaf_tables(self, pfns, copy_of=None):
        """Fresh leaf tables on frames the caller allocated, in order.

        ``alloc_table(LEVEL_PTE, copy_of=copy_of[i])`` for each
        ``pfns[i]`` without the allocation, for a batch (the batched fill
        and classic fork); the caller runs without Mitosis replicas.
        """
        kernel = self.kernel
        kernel.pages.on_alloc_bulk(np.asarray(pfns, dtype=np.int64),
                                   PG_PAGETABLE)
        store = kernel.entry_store
        tables = [PageTable(LEVEL_PTE, pfn, store, [self]) for pfn in pfns]
        for table in tables:
            kernel.register_table(table)
        rmap = kernel.rmap
        if rmap is not None:
            for table, source in zip(tables, copy_of or [None] * len(tables)):
                rmap.join(table, source)
        return tables

    @must_hold("mmap_lock")
    @charge_deferred("callers charge teardown via charge_table_free / "
                     "charge_table_put")
    def free_table_frame(self, table):
        """Release a table node's frame (callers handle entry accounting)."""
        kernel = self.kernel
        if kernel.mitosis is not None:
            # Replicas die with their primary — before the registry entry
            # goes, while node_of/accounting still see a live table.
            kernel.mitosis.collapse_table(table.pfn, reason="free")
        if table.level == LEVEL_PTE and kernel.rmap is not None:
            kernel.rmap.leave([table])
        kernel.unregister_table([table])
        kernel.pages.on_free(table.pfn)
        kernel.phys.zero(table.pfn)
        kernel.allocator.free(table.pfn, 0)

    def resolve(self, pfn):
        """The PageTable object at ``pfn`` (kernel registry)."""
        return self.kernel.resolve_table(pfn)

    # ---- walking ----------------------------------------------------------

    def walk_to_pmd(self, vaddr, alloc=False):
        """Return ``(pmd_table, index)`` for ``vaddr``.

        With ``alloc`` the missing upper levels are created (charged as
        upper-table work); without it, returns ``None`` when any upper
        level is absent.
        """
        table = self.pgd
        for level in (LEVEL_PGD, LEVEL_PUD):
            index = table_index(vaddr, level)
            entry = table.entries.item(index)
            if not entry & INT_PRESENT:
                if not alloc:
                    return None
                # An OOM mid-walk leaves the upper levels built so far
                # linked and empty; exit_mmap frees them like any others.
                self.kernel.failpoints.hit("mm.upper_table_alloc")
                child = self.alloc_table(level - 1)
                self.kernel.cost.charge_upper_copy()
                table.set(index, make_entry(child.pfn, writable=True, user=True))
                table = child
            else:
                table = self.resolve((entry & INT_PFN_MASK) >> PAGE_SHIFT)
        return table, table_index(vaddr, LEVEL_PMD)

    def get_pte_table(self, vaddr):
        """The leaf table mapping ``vaddr``, or ``None`` (huge or absent)."""
        slot = self.walk_to_pmd(vaddr, alloc=False)
        if slot is None:
            return None
        pmd_table, index = slot
        entry = pmd_table.entries[index]
        if not is_present(entry) or is_huge(entry):
            return None
        return self.resolve(int(entry_pfn(entry)))

    def pmd_tables(self, start=0, end=1 << VA_BITS):
        """Yield ``(pmd_table, table_base)`` for each present PMD table
        overlapping ``[start, end)``, in address order; by default the
        whole tree, as :meth:`upper_tables` lists it.

        Only present PGD and PUD entries are visited.  A PMD table covers
        1 GiB; fork, exit and RSS process a whole table at a time.
        """
        pgd = self.pgd
        for pgd_index in _present_in(pgd, 0, start, end):
            pud = self.resolve(pgd.child_pfn(pgd_index))
            pud_base = pgd_index * LEVEL_SPAN[LEVEL_PGD]
            for pud_index in _present_in(pud, pud_base, start, end):
                yield (self.resolve(pud.child_pfn(pud_index)),
                       pud_base + pud_index * LEVEL_SPAN[LEVEL_PUD])

    def present_slots(self, start=0, end=1 << VA_BITS):
        """Yield ``(pmd_table, index, slot_start, entry)`` for each present
        PMD entry overlapping ``[start, end)`` (the whole tree by default),
        in address order.

        The slot list is taken up front and each entry re-read when its
        slot comes up, skipping one no longer present: a caller may clear
        slots as it goes, and the SMP fork flow lets other tasks run
        between slots.
        """
        slots = [(pmd, index, base + index * PMD_REGION_SIZE)
                 for pmd, base in self.pmd_tables(start, end)
                 for index in _present_in(pmd, base, start, end)]
        for pmd, index, slot_start in slots:
            entry = pmd.entries[index]
            if is_present(entry):
                yield pmd, index, slot_start, entry

    def upper_tables(self):
        """All PUD and PMD tables reachable from the PGD (for teardown)."""
        found = []
        for pgd_index in self.pgd.present_indices():
            pud = self.resolve(self.pgd.child_pfn(int(pgd_index)))
            found.append(pud)
            for pud_index in pud.present_indices():
                pmd = self.resolve(pud.child_pfn(int(pud_index)))
                found.append(pmd)
        return found

    @property
    def nr_pte_tables(self):
        """Present PMD entries that are not huge, read from the tables."""
        return 0 if self.dead else len(self.leaf_tables())

    @property
    def nr_upper_tables(self):
        """PUD and PMD tables (the PGD excluded), read from the tables."""
        return 0 if self.dead else len(self.upper_tables())

    def leaf_tables(self):
        """All (pmd_table, index, leaf_table) triples in this address space."""
        return [(pmd, index, self.resolve(int(entry_pfn(entry))))
                for pmd, index, _, entry in self.present_slots()
                if not is_huge(entry)]

    # ---- VMA management ---------------------------------------------------

    def find_free_area(self, size, align=PAGE_SIZE):
        """First-fit aligned gap for a new mapping."""
        addr = self.vmas.find_gap(size, MMAP_FLOOR, MMAP_CEILING, align)
        if addr is None:
            raise InvalidArgumentError("address space exhausted")
        return addr

    def add_vma(self, vma):
        """Insert a VMA into this address space."""
        self.vmas.insert(vma)
        return vma

    def remove_vma(self, vma):
        """Remove a VMA from this address space."""
        self.vmas.remove(vma)

    def split_vma(self, vma, addr):
        """Split ``vma`` at ``addr``; returns the (left, right) pieces."""
        granule = HUGE_PAGE_SIZE if vma.is_hugetlb else PAGE_SIZE
        if addr % granule:
            raise InvalidArgumentError(f"split address {addr:#x} misaligned")
        if not vma.start < addr < vma.end:
            raise InvalidArgumentError("split point outside VMA")
        right = vma.clone(start=addr)
        self.vmas.remove(vma)
        left = vma.clone(end=addr)
        self.vmas.insert(left)
        self.vmas.insert(right)
        return left, right

    def split_range(self, start, end):
        """Split the VMAs straddling ``start`` or ``end`` so the range
        covers whole VMAs; returns the VMAs inside it, in address order."""
        inside = []
        for vma in list(self.vmas.overlapping(start, end)):
            if vma.start < start < vma.end:
                vma = self.split_vma(vma, start)[1]
            if vma.start < end < vma.end:
                vma = self.split_vma(vma, end)[0]
            inside.append(vma)
        return inside

    def vma_ranges_in_slot(self, slot_start, slot_end):
        """``(lo, hi, vma)`` pieces of VMAs inside a PMD slot.

        The table-COW path uses this to decide, entry by entry, whether
        write permission must be dropped (private COW regions) or kept
        (shared mappings) when a shared PTE table is copied.
        """
        pieces = []
        for vma in self.vmas.overlapping(slot_start, slot_end):
            pieces.append((max(vma.start, slot_start), min(vma.end, slot_end), vma))
        return pieces

    # ---- resident set -----------------------------------------------------

    def rss_counts(self):
        """``(anon, file)`` resident pages: what this mm's tables map.

        512 anon pages per huge entry and one page per present leaf
        entry, file-backed when its frame is ``PG_FILE``; a dead mm maps
        nothing.  The leaf rows are gathered one PMD table at a time.
        """
        if self.dead:
            return 0, 0
        kernel = self.kernel
        flags = kernel.pages.flags
        anon = file = 0
        for pmd, _base in self.pmd_tables():
            entries = pmd.entries
            present = present_mask(entries)
            huge = present & ((entries & BIT_PS) != 0)
            anon += int(np.count_nonzero(huge)) << HUGE_PAGE_ORDER
            leaf_pfns = entry_pfn(entries[present & ~huge]).tolist()
            if not leaf_pfns:
                continue
            _, pfns = present_pfns(kernel.entry_store.gather(
                [leaf.row for leaf in kernel.resolve_tables(leaf_pfns)]))
            n_file = int(np.count_nonzero(flags.take(pfns) & PG_FILE))
            file += n_file
            anon += len(pfns) - n_file
        return anon, file

    @property
    def rss_anon_pages(self):
        """Resident anonymous pages."""
        return self.rss_counts()[0]

    @property
    def rss_file_pages(self):
        """Resident page-cache pages."""
        return self.rss_counts()[1]

    @property
    def rss_pages(self):
        """Resident pages (anon + file)."""
        return sum(self.rss_counts())

    @property
    def rss_bytes(self):
        """Resident set size in bytes."""
        return self.rss_pages * PAGE_SIZE

    def mapped_bytes(self):
        """Total mapped virtual memory in bytes."""
        return self.vmas.total_mapped_bytes()
