"""Exhaustive kernel-state cross-checks (tests, benchmarks, the fuzzer).

``audit_machine`` recomputes every reference count and each address
space's RSS from first principles — walking each live address space's
paging tree and the page cache — and compares against the kernel's
accounting.  Any drift (the bug class that makes real kernels corrupt
memory) fails loudly.

Lives in ``repro.verify`` so the trace oracle, the benchmarks, and the
test suite share one auditor; ``tests/auditor.py`` is a re-export shim.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import KernelBug
from ..mem.page import (
    HUGE_PAGE_ORDER,
    PAGE_SHIFT,
    PG_ANON,
    PG_COMPOUND_TAIL,
    PG_FILE,
    PG_PAGETABLE,
)
from ..paging import (
    entry_pfn,
    is_huge,
    present_mask,
    swap_entry_slot,
    swap_mask,
)
from ..paging.table import LEVEL_PGD, LEVEL_PMD, LEVEL_PUD, LEVEL_SPAN


def audit_machine(machine):
    """Recompute and verify all refcounts and table registrations."""
    kernel = machine.kernel
    pages = machine.pages

    expected_sharers = defaultdict(list)    # leaf table pfn -> [mm, ...]
    # One pfn per reference a data page should hold, in arrays: a dict
    # entry per mapped page would cost ~100 bytes of host memory each.
    page_refs = []
    seen_leaf_tables = {}
    reachable_tables = set()

    live_mms = []
    seen_mm_ids = set()
    for t in kernel.tasks.values():
        # clone_vm/vfork tasks share one mm; walk each address space once.
        if not t.mm.dead and id(t.mm) not in seen_mm_ids:
            seen_mm_ids.add(id(t.mm))
            live_mms.append(t.mm)
    errors = []
    for mm in live_mms:
        n_huge = 0
        leaves = []
        reachable_tables.add(mm.pgd.pfn)
        for pud_index in mm.pgd.present_indices().tolist():
            pud = mm.resolve(mm.pgd.child_pfn(pud_index))
            reachable_tables.add(pud.pfn)
            for pmd_index in pud.present_indices().tolist():
                pmd = mm.resolve(pud.child_pfn(pmd_index))
                reachable_tables.add(pmd.pfn)
                entries = pmd.entries
                for slot in pmd.present_indices().tolist():
                    entry = entries[slot]
                    slot_start = (pud_index * LEVEL_SPAN[LEVEL_PGD]
                                  + pmd_index * LEVEL_SPAN[LEVEL_PUD]
                                  + slot * LEVEL_SPAN[LEVEL_PMD])
                    if is_huge(entry):
                        page_refs.append([int(entry_pfn(entry))])
                        n_huge += 1
                        # The huge-PMD fault reuses a sole-owned page with
                        # no VMA check: THP must never map a shared VMA.
                        vma = mm.vmas.find(slot_start)
                        if vma is not None and not (vma.is_hugetlb
                                                    or vma.is_private):
                            errors.append(f"THP entry at {slot_start:#x} in "
                                          f"a shared VMA")
                        continue
                    leaf_pfn = int(entry_pfn(entry))
                    expected_sharers[leaf_pfn].append(mm)
                    leaf = mm.resolve(leaf_pfn)
                    seen_leaf_tables[leaf_pfn] = leaf
                    leaves.append((slot_start, leaf))
        errors += _audit_rss(pages, mm, leaves, n_huge)
        errors += _audit_vma_cover(mm, leaves)

    # Each leaf table *object* owns one reference per present data page.
    for leaf in seen_leaf_tables.values():
        page_refs.append(entry_pfn(leaf.entries[present_mask(leaf.entries)]))

    # The page cache holds one reference per cached page.
    page_refs.append(list(kernel.page_cache._cache.values()))

    # Live in-place snapshots hold one reference per saved present page.
    for snapshot in kernel.live_snapshots:
        for saved in snapshot.saved.values():
            page_refs.append(entry_pfn(saved[present_mask(saved)]))

    # The swap cache holds one reference per cached frame.
    if kernel.swap_cache is not None:
        page_refs.append([pfn for _slot, pfn in kernel.swap_cache.items()])
    referenced, expected = np.unique(
        np.concatenate([np.asarray(refs, dtype=np.int64)
                        for refs in page_refs]),
        return_counts=True)

    actual = pages.refcount[referenced]
    wrong = np.flatnonzero(actual != expected)
    for pfn, have, count in zip(referenced[wrong].tolist(),
                                actual[wrong].tolist(),
                                expected[wrong].tolist()):
        errors.append(f"page {pfn}: refcount {have}, {count} references found")

    # No data page should have a refcount without a referent (leak), and
    # table frames must be registered.  Frame 0 is reserved.
    live = np.flatnonzero(pages.refcount[1:] > 0) + 1
    flags = pages.flags[live]
    is_table = (flags & PG_PAGETABLE) != 0
    for pfn in live[is_table].tolist():
        if pfn not in kernel._tables:
            # Mitosis replica frames are table-flagged but live only
            # in the replica registry; _audit_numa cross-checks them.
            if kernel.mitosis is not None and \
                    pfn in kernel.mitosis.replica_of:
                continue
            errors.append(f"table frame {pfn} not registered")
    data = live[~is_table & ((flags & PG_COMPOUND_TAIL) == 0)]
    has_referent = np.zeros(len(pages.refcount), dtype=bool)
    has_referent[referenced] = True
    for pfn in data[~has_referent[data]].tolist():
        errors.append(f"page {pfn} live (ref={pages.get_ref(pfn)}) "
                      f"but unreachable: leak")

    # Registered table frames must be exactly the reachable ones: a table
    # allocated but never installed (a botched unwind) would otherwise
    # pass every refcount check while leaking its frame.
    reachable_tables.update(seen_leaf_tables)
    registered = set(kernel._tables)
    stray = registered - reachable_tables
    unregistered = reachable_tables - registered
    if stray:
        errors.append(f"table frames registered but unreachable: "
                      f"{sorted(stray)[:8]}")
    if unregistered:
        errors.append(f"reachable table frames not registered: "
                      f"{sorted(unregistered)[:8]}")

    if kernel.swap is not None:
        errors += _audit_swap(kernel, seen_leaf_tables)
        errors += _audit_rmap_and_lru(kernel, pages, seen_leaf_tables)
    errors += _audit_sharers(seen_leaf_tables, expected_sharers)
    errors += _audit_tlbs(machine, live_mms)
    errors += _audit_smp(machine)
    if kernel.numa is not None:
        errors += _audit_numa(machine)

    pages.check_no_negative()
    machine.allocator.check_consistency()
    if errors:
        raise AssertionError("kernel audit failed:\n  " + "\n  ".join(errors[:12]))


def _audit_rss(pages, mm, leaves, n_huge):
    """An mm's RSS must equal what this walk finds its tables map: 512
    anon pages per huge entry, and one page per present leaf entry,
    file-backed when the page is ``PG_FILE``.  A ``PG_FILE`` page must
    lie in a file-backed VMA."""
    errors = []
    anon = n_huge << HUGE_PAGE_ORDER
    file = 0
    for slot_start, leaf in leaves:
        entries = leaf.entries
        present = present_mask(entries)
        pfns = entry_pfn(entries[present]).astype(np.int64)
        is_file = (pages.flags[pfns] & PG_FILE) != 0
        n_file = int(np.count_nonzero(is_file))
        file += n_file
        anon += len(pfns) - n_file
        if n_file:
            for index in np.flatnonzero(present)[is_file].tolist():
                vaddr = slot_start + (index << PAGE_SHIFT)
                vma = mm.vmas.find(vaddr)
                if vma is None or not vma.is_file_backed:
                    errors.append(
                        f"mm of pid {mm.owner_pid}: file page "
                        f"{int(entry_pfn(entries[index]))} mapped at "
                        f"{vaddr:#x} outside a file mapping")
    rss = mm.rss_counts()
    if rss != (anon, file):
        errors.append(f"mm of pid {mm.owner_pid}: RSS anon/file "
                      f"{rss[0]}/{rss[1]}, walk found {anon}/{file}")
    return errors


def _audit_vma_cover(mm, leaves):
    """Every present or swap entry of an mm's leaf tables must lie inside
    one of its VMAs: an entry outside them is memory no syscall can reach
    or unmap until exit."""
    errors = []
    for slot_start, leaf in leaves:
        entries = leaf.entries
        stray = present_mask(entries) | swap_mask(entries)
        for vma in mm.vmas.overlapping(slot_start,
                                       slot_start + LEVEL_SPAN[LEVEL_PMD]):
            stray[max(vma.start - slot_start, 0) >> PAGE_SHIFT:
                  (vma.end - slot_start) >> PAGE_SHIFT] = False
        if stray.any():
            vaddr = slot_start + (int(np.argmax(stray)) << PAGE_SHIFT)
            errors.append(f"mm of pid {mm.owner_pid}: entry at {vaddr:#x} "
                          f"outside every VMA")
    return errors


def _audit_swap(kernel, seen_leaf_tables):
    """Recompute swap_map from table objects + snapshots; check the cache
    and the free list."""
    errors = []
    dev = kernel.swap
    expected_slots = defaultdict(int)   # slot -> #references
    for leaf in seen_leaf_tables.values():
        entries = leaf.entries
        swapped = swap_mask(entries)
        for slot in swap_entry_slot(entries[swapped]).tolist():
            expected_slots[int(slot)] += 1
    for snapshot in kernel.live_snapshots:
        for saved in snapshot.saved.values():
            for slot in swap_entry_slot(saved[swap_mask(saved)]).tolist():
                expected_slots[int(slot)] += 1

    for slot, count in expected_slots.items():
        actual = int(dev.swap_map[slot])
        if actual != count:
            errors.append(
                f"swap slot {slot}: swap_map {actual}, {count} references found"
            )
    for slot in np.nonzero(dev.swap_map > 0)[0].tolist():
        if slot not in expected_slots:
            errors.append(
                f"swap slot {slot} has {int(dev.swap_map[slot])} refs "
                f"but no referent: leaked slot"
            )

    # Free-list consistency: free slots carry no refs, and every slot is
    # either free or referenced.
    free = set(dev._free)
    if len(free) != len(dev._free):
        errors.append("swap free list contains duplicates")
    live = set(np.nonzero(dev.swap_map > 0)[0].tolist())
    overlap = free & live
    if overlap:
        errors.append(f"swap slots both free and referenced: {sorted(overlap)[:8]}")
    if len(free) + len(live) != dev.n_slots:
        errors.append(
            f"swap slot accounting: {len(free)} free + {len(live)} live "
            f"!= {dev.n_slots} total"
        )

    # Every cached slot must still be referenced, and the mapping must be
    # bijective.
    for slot, pfn in kernel.swap_cache.items():
        if dev.swap_map[slot] <= 0:
            errors.append(f"swap cache holds slot {slot} with no references")
        if kernel.swap_cache.slot_of(pfn) != slot:
            errors.append(f"swap cache slot {slot} <-> pfn {pfn} not bijective")
    return errors


def _audit_rmap_and_lru(kernel, pages, seen_leaf_tables):
    """Recompute every anon page's mapcount from the paging trees, check
    that the reverse lookup finds exactly the tables the walk does, and
    that the LRU lists track exactly the mapped pages."""
    errors = []
    rmap = kernel.rmap
    walked = defaultdict(set)   # pfn -> leaf tables mapping it
    mapped = [np.empty(0, dtype=np.int64)]
    for leaf in seen_leaf_tables.values():
        entries = leaf.entries
        pfns = entry_pfn(entries[present_mask(entries)]).astype(np.int64)
        flags = pages.flags[pfns]
        pfns = pfns[((flags & np.uint16(PG_ANON)) != 0)
                    & ((flags & np.uint16(PG_FILE)) == 0)]
        mapped.append(pfns)
        for pfn in pfns.tolist():
            walked[pfn].add(leaf.pfn)

    expected = np.bincount(np.concatenate(mapped),
                           minlength=len(rmap.mapcount))
    for pfn in np.nonzero(expected != rmap.mapcount)[0][:8].tolist():
        errors.append(f"rmap mapcount of page {pfn}: kernel has "
                      f"{rmap.mapcount[pfn]}, walk found {expected[pfn]}")
    for pfn, tables in walked.items():
        try:
            found = set(rmap.tables_for(pfn))
        except KernelBug as exc:
            errors.append(str(exc))
            continue
        if found != tables:
            errors.append(f"rmap lookup for page {pfn}: found tables "
                          f"{sorted(found)}, walk found {sorted(tables)}")
    listed = {(family, pfn) for family, tables in rmap.members.items()
              for pfn in tables}
    live = {(leaf.family, pfn) for pfn, leaf in seen_leaf_tables.items()}
    if listed != live:
        errors.append("rmap families do not cover exactly the live leaf "
                      "tables")

    reclaim = kernel.reclaim
    active = set(reclaim.active)
    inactive = set(reclaim.inactive)
    both = active & inactive
    if both:
        errors.append(f"pages on both LRU lists: {sorted(both)[:8]}")
    on_lru = active | inactive
    tracked = set(np.nonzero(rmap.mapcount)[0].tolist())
    if on_lru != tracked:
        missing = sorted(tracked - on_lru)[:8]
        stray = sorted(on_lru - tracked)[:8]
        if missing:
            errors.append(f"mapped anon pages missing from LRU: {missing}")
        if stray:
            errors.append(f"LRU holds unmapped pages: {stray}")
    return errors


def _audit_sharers(seen_leaf_tables, expected):
    """Each live leaf table's sharer list must hold exactly the mms whose
    PMDs reference it: its length is the §3.5 share count."""
    errors = []
    for leaf_pfn, mms in expected.items():
        registered = seen_leaf_tables[leaf_pfn].sharers
        if sorted(map(id, registered)) != sorted(map(id, mms)):
            errors.append(
                f"sharers of leaf {leaf_pfn}: {len(registered)} "
                f"registered, {len(mms)} referencing mms found"
            )
    return errors


def _audit_tlbs(machine, live_mms):
    """Every cached translation must match a side-effect-free walk: the
    same pfn, and writable only where the walk is writable.

    Covers each live mm's own TLB and every vCPU view of a live mm.  A
    mismatch is a missing flush: a stale pfn reads freed memory, and a
    stale write permission lets a write skip its COW fault.
    """
    kernel = machine.kernel
    views = [(f"mm {i}", mm, mm.tlb) for i, mm in enumerate(live_mms)]
    if kernel.smp is not None:
        live = {id(mm): i for i, mm in enumerate(live_mms)}
        views += [(f"cpu{v.id} view of mm {live[id(v.tlb_mm)]}", v.tlb_mm,
                   v.tlb)
                  for v in kernel.smp.vcpus
                  if v.tlb_mm is not None and id(v.tlb_mm) in live]
    probe = kernel.walker.probe
    errors = []
    for where, mm, tlb in views:
        for vpn, cached in tlb.cached():
            vaddr = vpn << PAGE_SHIFT
            walk = probe(mm.pgd, vaddr)
            if walk is None or walk.pfn != cached.pfn:
                errors.append(
                    f"{where}: stale TLB entry at {vaddr:#x} caches pfn "
                    f"{cached.pfn}, the walk gives "
                    f"{None if walk is None else walk.pfn}")
            elif cached.writable and not walk.writable:
                errors.append(
                    f"{where}: stale TLB write permission at {vaddr:#x} "
                    f"(pfn {cached.pfn}); the walk is read-only")
    return errors


def _audit_smp(machine):
    """Lock quiescence: no held locks, no queued waiters, no in-flight
    IPIs, and no lingering copy-phase count once the scheduler is idle."""
    sched = getattr(machine, "smp", None)
    if sched is None:
        return []
    return sched.quiescence_errors()


def _audit_numa(machine):
    """Per-node frame conservation plus the Mitosis replica registry.

    Zones must partition the frame range with per-zone free/used summing
    to the span; every replica frame must be node-local to its registered
    node, table-flagged, refcount 1, bijectively mapped, and cover
    exactly the remote nodes of a registered primary (replication is
    all-or-nothing per table).
    """
    errors = []
    kernel = machine.kernel
    allocator = machine.allocator
    topology = kernel.numa
    pages = machine.pages

    covered = 0
    for node in range(topology.nodes):
        base, span = allocator.node_span(node)
        if base != covered:
            errors.append(f"node {node} zone starts at frame {base}, "
                          f"expected {covered}: zones do not partition")
        covered += span
        zone = allocator.zones[node]
        if zone.free_frames + zone.used_frames != zone.n_frames:
            errors.append(
                f"node {node}: {zone.free_frames} free + "
                f"{zone.used_frames} used != {zone.n_frames} span frames")
    if covered != allocator.n_frames:
        errors.append(f"zones cover {covered} frames of "
                      f"{allocator.n_frames}")

    mitosis = kernel.mitosis
    if mitosis is None:
        return errors
    all_nodes = set(range(topology.nodes))
    for primary, got in mitosis.replicas.items():
        if primary not in kernel._tables:
            errors.append(f"replicas registered for unknown table {primary}")
            continue
        home = allocator.node_of(primary)
        if set(got) != all_nodes - {home}:
            errors.append(
                f"table {primary}: replicas on nodes {sorted(got)}, "
                f"expected every node but home {home}")
        for node, rpfn in got.items():
            if allocator.node_of(rpfn) != node:
                errors.append(
                    f"replica {rpfn} of table {primary} lives on node "
                    f"{allocator.node_of(rpfn)}, registered for {node}")
            if mitosis.replica_of.get(rpfn) != primary:
                errors.append(f"replica map for frame {rpfn} not bijective")
            if not pages.has_flags(rpfn, PG_PAGETABLE):
                errors.append(f"replica frame {rpfn} missing PG_PAGETABLE")
            elif pages.get_ref(rpfn) != 1:
                errors.append(f"replica frame {rpfn}: refcount "
                              f"{pages.get_ref(rpfn)}, expected 1")
    for rpfn, primary in mitosis.replica_of.items():
        node = allocator.node_of(rpfn)
        if mitosis.replicas.get(primary, {}).get(node) != rpfn:
            errors.append(f"replica_of[{rpfn}] -> {primary} has no "
                          f"matching forward entry: leaked replica frame")
    for table_pfn in mitosis.owner:
        if table_pfn not in mitosis.replicas:
            errors.append(f"walk-entitlement owner recorded for "
                          f"unreplicated table {table_pfn}")
    return errors
