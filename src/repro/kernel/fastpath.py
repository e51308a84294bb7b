"""Analytic fast paths: whole-address-space fork, exit teardown, first touch.

The per-event code in :mod:`repro.kernel.fork` and
:mod:`repro.kernel.teardown` (and the first-touch fill in
:mod:`repro.kernel.bulkops`) walks one 2 MiB slot at a time so that
failpoints, tracepoints, sanitizers, and the SMP scheduler can interpose
at every step.  When none of those observers is attached, the walk's
outcome is a pure function of the address-space shape — so this module
computes the same result with a handful of vectorised operations over the
packed :class:`~repro.paging.store.EntryStore` rows and one
:meth:`~repro.timing.costs.CostModel.charge_many` call per fork or table.
Each page column is read once
(:func:`~repro.paging.entries.present_pfns`), and only the buddy calls
stay per slot: fork adopts a PMD table's leaf tables in one
:meth:`~repro.kernel.mm.MMStruct.adopt_leaf_tables` batch, and exit
drops its dead tables' rmap families and packed rows in one.

Equivalence contract (enforced by ``repro.verify --equivalence`` and
``tests/test_vectorized_equivalence.py``): a run with the fast path
engaged produces bit-identical clocks, stats, RSS, digests, noise-RNG
state, and buddy free lists.  The rules that make that hold:

* **Engagement predicate** (:func:`fast_path_ok`): tracing, sanitizers,
  a *running* SMP scheduler, NUMA/Mitosis, and failpoints (recording *or*
  armed — hit ordinals must keep counting per slot) all force the
  per-event path.  Only a running scheduler can interpose between
  slots, so an idle ``Machine(smp=N)`` takes the fast path.
* **Headroom rule**: the fork fast path and a fill run engage only when
  they can prove the per-event walk would neither wake kswapd nor enter
  reclaim/OOM (``free - needed >= wm_low``); otherwise they fall back
  untouched.
* **Charge parity**: charges are queued in the exact per-event order and
  flushed through ``charge_many``, which consumes the same noise draws at
  the same buffer-refill boundaries and rounds each event half-even on
  its own.
* **Allocator parity**: frame allocations are the same buddy calls in
  the same address order (fork allocates each leaf frame after its
  PMD table's upper tables; a fill run keeps each slot's table frame,
  then its data frames), and frees keep the per-slot ``free_bulk``
  grouping — buddy splitting and coalescing are call-local, so the call
  sequence *is* allocator state.  Packed rows are taken in the same
  order too (one adopt per PMD table).
* **Bail-before-mutate**: every fallback condition (duplicate pfns
  across an exit batch's slots, a released swap slot whose cached frame
  the batch also unmaps) is detected by read-only analysis before the
  first mutation, so a ``False`` return always means "run the per-event
  path on untouched state".

Engagement is counted, not inferred: ``kernel.fastpath_counts`` (the
``fastpath`` metrics namespace) holds ``<op>_engaged`` and
``<op>_bailed.<reason>`` for ``op`` in fill (PMD slots), fork (forks)
and exit (PMD tables).  The counters are kept out of ``vmstat()``:
paired fast and per-event machines differ in them by design.  No fast
path keeps RSS: :meth:`~repro.kernel.mm.MMStruct.rss_counts` reads it
from the tables either path builds.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import PAGE_SIZE, PG_FILE, PTRS_PER_TABLE, has_duplicates
from ..paging.entries import (
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_USER,
    ENTRY_NONE,
    PFN_MASK,
    PFN_SHIFT,
    entry_pfn,
    present_mask,
    present_pfns,
    swap_mask,
)
from ..paging.table import LEVEL_PGD, LEVEL_SPAN, PMD_REGION_SIZE
from ..timing.costs import (
    FN_COMPOUND_HEAD,
    FN_COPY_ONE_PTE,
    FN_HUGE_COPY,
    FN_PAGE_REF_INC,
    FN_PTE_ALLOC,
    FN_READ_ONCE,
    FN_TABLE_FREE,
    FN_TABLE_UNSHARE_DEC,
    FN_VM_NORMAL_PAGE,
    FN_ZAP_PTE,
)
from ..trace import points
from .fork import begin_classic_copy, finish_classic_copy
from .rmap import rmap_add_bulk, rmap_remove_bulk
from ..sancheck.annotations import acquires, must_hold, tlb_deferred
from .tableops import (
    DROP_RW,
    drop_shared_tables,
    write_protect,
)

#: The engaged counter of each fast path (see the module docstring).
FASTPATH_ENGAGED = ("fill_engaged", "fork_engaged", "exit_engaged")

# charge_many id table for the fork leaf loop: the six charges one
# classic_copy_slot issues for a leaf slot (pte_alloc_one, then the five
# copy_one_pte split costs), plus the huge-entry copy.
_FORK_FNS = [FN_PTE_ALLOC, FN_COMPOUND_HEAD, FN_PAGE_REF_INC, FN_READ_ONCE,
             FN_VM_NORMAL_PAGE, FN_COPY_ONE_PTE, FN_HUGE_COPY]
_ID_HUGE = 6

# charge_many id table for the exit path.
_EXIT_FNS = [FN_ZAP_PTE, FN_TABLE_UNSHARE_DEC, FN_TABLE_FREE]
_ID_ZAP, _ID_PUT, _ID_FREE = 0, 1, 2


#: Which slow paths each analytic fast path replaces.  The
#: fastpath-sound rule walks the slow paths' layer-0 call closure,
#: collects every kernel feature attribute they consult, and demands
#: that ``fast_path_ok`` tests each one (or that FASTPATH_HANDLED below
#: justifies why engaging with the feature live cannot diverge).
FASTPATH_REPLACES = {
    "fast_copy_mm_classic": "copy_mm_classic",
    "fast_exit_release_pmd_table": "_exit_release_pmd_table",
    # bulkops.fast_fill_run: a run of absent slots' first touch.
    "fast_fill_run": "_access_leaf_piece",
}

#: Features the slow paths consult that ``fast_path_ok`` deliberately
#: does NOT bail on, with the soundness argument for each.
FASTPATH_HANDLED = {
    "mitosis": "only live when NUMA replication is configured; the "
               "numa-is-None bail keeps the fast path off Mitosis machines",
    "rmap": "fork raises the mapcount of already-mapped pages with one "
            "rmap_add_bulk per PMD table (no LRU edge can fire, so the "
            "per-table calls reach the per-slot state) and its child "
            "tables join their parents' families via "
            "adopt_leaf_tables(copy_of=), as "
            "alloc_table(copy_of=) does in classic_copy_slot; exit drops "
            "the same mapcounts with one rmap_remove_bulk per table batch, "
            "in the per-event pfn order; "
            "a fill run enrols each fresh table in a new family and maps "
            "its fresh pages with one rmap_add_bulk at their per-slot "
            "homes, so the LRU gets them in the per-slot order",
    "swap": "fork duplicates swap entries via swap_dup_entries; exit "
            "drops every dead table's slot references with one "
            "swap_put_rows and releases each slot whose last reference "
            "went after the free_bulk of the table holding that reference "
            "and before its frame is freed, where that table's "
            "swap_put_entries call releases it, and bails only when a slot "
            "the batch releases caches a frame the batch also unmaps; a "
            "fill run only builds fresh tables, which hold no swap entries",
    "reclaim": "_fork_headroom_ok proves the copy (or the fill run) "
               "finishes above wm_low, so neither kswapd nor direct reclaim "
               "can engage; exit only frees frames",
}


def fast_path_ok(kernel):
    """Whether the analytic fast path may replace the per-event walk."""
    return (
        kernel.fastpath
        and not points.enabled
        and (kernel.smp is None or not kernel.smp.running)
        and kernel.san is None
        and getattr(kernel.allocator, "sanitizer", None) is None
        and kernel.phys.sanitizer is None
        and not kernel.failpoints.active
        and kernel.numa is None
    )


def count_bail(kernel, op, reason, n=1):
    """``n`` units of ``op`` took the per-event path because of ``reason``."""
    kernel.fastpath_counts[f"{op}_bailed.{reason}"] += n


def count_refusal(kernel, op, n=1):
    """Count a :func:`fast_path_ok` refusal under its first failing
    conjunct, in the predicate's order (the three sanitizer hooks share
    one reason)."""
    if not kernel.fastpath:
        reason = "disabled"
    elif points.enabled:
        reason = "tracing"
    elif kernel.smp is not None and kernel.smp.running:
        reason = "smp"
    elif (kernel.san is not None
          or getattr(kernel.allocator, "sanitizer", None) is not None
          or kernel.phys.sanitizer is not None):
        reason = "sanitizer"
    elif kernel.failpoints.active:
        reason = "failpoints"
    else:
        reason = "numa"
    count_bail(kernel, op, reason, n)


def _fork_headroom_ok(kernel, needed):
    """Prove the per-event copy would finish without reclaim side effects.

    ``_maybe_wake_kswapd`` fires when ``free - 1 < wm_low`` before an
    order-0 allocation; after ``needed - 1`` successful allocations the
    tightest check is ``free - needed >= wm_low``.  Without a reclaim
    subsystem any free frame satisfies an order-0 request, so
    ``free >= needed`` suffices.
    """
    free = kernel.allocator.free_frames
    reclaim = kernel.reclaim
    if reclaim is not None:
        return free - needed >= reclaim.wm_low
    return free >= needed


def _cow_mask_for_table(mm, table_base):
    """Boolean ``(512, 512)``: per-page private-COW mask for one PMD table.

    Row ``i`` equals ``private_cow_mask(mm, table_base + i * 2 MiB)``:
    every page inside a ``needs_cow`` VMA piece is marked, painted here
    with one pass over the VMAs overlapping the table's whole GiB.
    """
    span = PMD_REGION_SIZE * PTRS_PER_TABLE
    table_end = table_base + span
    mask = np.zeros(PTRS_PER_TABLE * PTRS_PER_TABLE, dtype=bool)
    for vma in mm.vmas.overlapping(table_base, table_end):
        if not vma.needs_cow:
            continue
        lo = max(vma.start, table_base)
        hi = min(vma.end, table_end)
        mask[(lo - table_base) // PAGE_SIZE:(hi - table_base) // PAGE_SIZE] = True
    return mask.reshape(PTRS_PER_TABLE, PTRS_PER_TABLE)


def _row_counts(present, n_present):
    """Present entries per row of the ``(n, 512)`` mask ``present``,
    which holds ``n_present`` in all."""
    if n_present == present.size:
        return np.full(len(present), PTRS_PER_TABLE, dtype=np.int64)
    return np.count_nonzero(present, axis=1).astype(np.int64, copy=False)


def _count_flagged(flags, pfns, bit):
    """How many of ``pfns`` carry ``bit`` in the page-flags column."""
    picked = flags.take(pfns)
    np.bitwise_and(picked, bit, out=picked)
    return int(np.count_nonzero(picked))


# ---------------------------------------------------------------------------
# classic fork
# ---------------------------------------------------------------------------

@must_hold("mmap_lock")
@acquires("ptl")
def fast_copy_mm_classic(kernel, parent_mm, child_mm):
    """Vectorised ``copy_mm_classic``; returns True when engaged.

    Returning False means *nothing was mutated* and the caller must run
    the per-event copy.
    """
    if not fast_path_ok(kernel):
        count_refusal(kernel, "fork")
        return False

    # Read-only pre-scan: classify each parent PMD table's slots and add
    # up the frame budget the headroom rule needs.
    plan = []
    n_leaf_total = 0
    pud_keys = set()
    for pmd, base in parent_mm.pmd_tables():
        entries = pmd.entries
        present = present_mask(entries)
        if not present.any():
            continue
        huge = (entries & BIT_PS) != ENTRY_NONE
        leaf_pos = np.nonzero(present & ~huge)[0]
        huge_pos = np.nonzero(present & huge)[0]
        parents = kernel.resolve_tables(entry_pfn(entries[leaf_pos]).tolist())
        plan.append((pmd, base, leaf_pos, huge_pos, parents))
        n_leaf_total += len(leaf_pos)
        pud_keys.add(base // LEVEL_SPAN[LEVEL_PGD])
    if not _fork_headroom_ok(kernel, n_leaf_total + len(plan) + len(pud_keys)):
        count_bail(kernel, "fork", "headroom")
        return False

    cost = kernel.cost
    p = cost.params
    factor = cost.contention_factor()
    store = kernel.entry_store
    pages = kernel.pages
    allocator = kernel.allocator

    builder = begin_classic_copy(kernel, parent_mm, child_mm)

    charge_ids = []
    charge_ns = []
    n_huge_total = 0

    for pmd, base, leaf_pos, huge_pos, parents in plan:
        # Upper levels first, then one leaf frame per slot in address
        # order — the exact allocator call sequence of the per-event walk.
        # The headroom proof rules out alloc_table_frame's kswapd wake and
        # reclaim retry, and fast_path_ok rules out NUMA placement, so
        # the buddy calls it ends in are the whole allocation.
        child_pmd = builder.pmd_table_for(base)
        n_slots = len(leaf_pos)
        cow_table = _cow_mask_for_table(parent_mm, base)

        counts = None
        if n_slots:
            # sancheck: ignore[failpoint] -- unreachable under fault injection: fast_path_ok() bails when failpoints are armed
            leaf_pfns = [allocator.alloc(0) for _ in range(n_slots)]
            leaves = child_mm.adopt_leaf_tables(leaf_pfns, copy_of=parents)

            parent_rows = [t.row for t in parents]
            matrix = store.gather(parent_rows)
            cow = cow_table[leaf_pos]
            all_cow = cow.all()
            write_protect(matrix, cow, all_cow)
            # Dedicated parent tables get the same write-protect, so their
            # rows are the protected child matrix; shared ones are left
            # alone — their PMD entry already carries RW=0 and the
            # table-COW protocol owns their entry bits.
            if cow.any():
                dedicated = np.array([len(t.sharers) == 1 for t in parents],
                                     dtype=bool)
                if dedicated.all():
                    store.scatter(parent_rows, matrix)
                elif dedicated.any():
                    store.scatter(np.asarray(parent_rows)[dedicated],
                                  matrix[dedicated])
            store.scatter([leaf.row for leaf in leaves], matrix)

            pres, pfns = present_pfns(matrix)
            counts = _row_counts(pres, len(pfns))
            if len(pfns):
                # One uniqueness proof per table serves the refcount and
                # the mapcount update.
                unique = not has_duplicates(pfns)
                pages.ref_inc_bulk(pfns, _unique=unique)
                rmap_add_bulk(kernel, pfns, _unique=unique)
            kernel.swap_dup_entries(matrix.ravel())
            child_pmd.entries[leaf_pos] = (
                ((np.asarray(leaf_pfns, dtype=np.uint64)
                  << np.uint64(PFN_SHIFT)) & np.uint64(PFN_MASK))
                | np.uint64(BIT_PRESENT | BIT_RW | BIT_USER)
            )

        if len(huge_pos):
            ents = pmd.entries[huge_pos].copy()
            heads = entry_pfn(ents).astype(np.int64)
            pages.ref_inc_bulk(heads)
            # A huge slot needs COW when its first page does.
            needs = cow_table[huge_pos, 0]
            if needs.any():
                ents[needs] &= DROP_RW
                pmd.entries[huge_pos[needs]] = ents[needs]
            child_pmd.entries[huge_pos] = ents
            n_huge_total += len(huge_pos)

        # Queue this table's charges in per-slot address order: a huge
        # slot contributes one HUGE_COPY event; a leaf slot PTE_ALLOC plus
        # the five copy_one_pte split charges.  Zero-valued events (empty
        # leaf table, zero-cost constant) are masked out by charge_many
        # exactly as charge() skips them: no clock advance, no noise draw.
        n_pos = n_slots + len(huge_pos)
        ids = np.empty((n_pos, 6), dtype=np.int64)
        ns = np.zeros((n_pos, 6), dtype=np.float64)
        order = np.argsort(np.concatenate([leaf_pos, huge_pos]), kind="stable")
        is_leaf = np.zeros(n_pos, dtype=bool)
        is_leaf[:n_slots] = True
        is_leaf = is_leaf[order]
        ids[:] = np.arange(6, dtype=np.int64)
        ids[~is_leaf, 0] = _ID_HUGE
        if len(huge_pos):
            ns[~is_leaf, 0] = p.huge_entry_copy * 1
        if n_slots:
            leaf_rows = np.nonzero(is_leaf)[0]
            nvec = counts.astype(np.float64)
            ns[leaf_rows, 0] = p.pte_table_alloc * 1
            ns[leaf_rows, 1] = (p.pte_copy_compound_head * nvec) * factor
            ns[leaf_rows, 2] = (p.pte_copy_page_ref_inc * nvec) * factor
            ns[leaf_rows, 3] = p.pte_copy_read_once * nvec
            ns[leaf_rows, 4] = p.pte_copy_vm_normal_page * nvec
            ns[leaf_rows, 5] = p.pte_copy_other * nvec
        charge_ids.append(ids.ravel())
        charge_ns.append(ns.ravel())

    if charge_ids:
        cost.charge_many(np.concatenate(charge_ids),
                         np.concatenate(charge_ns), _FORK_FNS)

    finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf_total,
                        n_huge_total)
    kernel.fastpath_counts["fork_engaged"] += 1
    return True


# ---------------------------------------------------------------------------
# exit teardown
# ---------------------------------------------------------------------------

def _slot_release_frees_unmapped(kernel, swap_entries, all_pfns):
    """Whether a slot whose last reference the batch drops caches a frame
    the batch also unmaps.

    The batch drops every page reference up front, before the first slot
    goes, so such a frame could reach zero at its slot's release instead
    of in its table's ``free_bulk``: a reordered allocator call.
    """
    slots, refs = np.unique(entry_pfn(swap_entries).astype(np.int64),
                            return_counts=True)
    released = slots[kernel.swap.swap_map[slots] == refs]
    pfn_of = kernel.swap_cache.pfn_of
    cached = [pfn for pfn in map(pfn_of, released.tolist()) if pfn is not None]
    return bool(cached) and bool(np.isin(cached, all_pfns).any())


@must_hold("mmap_lock", "ptl")
@tlb_deferred("exit_mmap shoots the dying mm down once after the walk")
def fast_exit_release_pmd_table(kernel, mm, pmd_table):
    """Vectorised ``_exit_release_pmd_table``; returns True when engaged.

    The caller is responsible for checking :func:`fast_path_ok`.
    Returning False means nothing was mutated and the caller must run the
    per-event release for this table.
    """
    entries = pmd_table.entries
    present = present_mask(entries)
    if not present.any():
        kernel.fastpath_counts["exit_engaged"] += 1
        return True
    pages = kernel.pages
    huge = (entries & BIT_PS) != ENTRY_NONE
    leaf_positions = np.nonzero(present & ~huge)[0]
    huge_positions = np.nonzero(present & huge)[0]

    # ---- read-only analysis (a bail-out must mutate nothing) ------------
    dead_tables = shared_tables = []
    surviving = None
    leaf_pfns = dead_pfns = all_pfns = counts = matrix = None
    has_swap = False
    if len(leaf_positions):
        leaf_pfns = entry_pfn(entries[leaf_positions]).astype(np.int64)
        leaves = kernel.resolve_tables(leaf_pfns.tolist())
        shared = [len(t.sharers) > 1 for t in leaves]
        surviving = np.array(shared, dtype=bool)
        if surviving.any():
            shared_tables = [t for t, s in zip(leaves, shared) if s]
            dead_tables = [t for t, s in zip(leaves, shared) if not s]
        else:
            dead_tables = leaves
        dead_pfns = leaf_pfns[~surviving]
        matrix = kernel.entry_store.gather([t.row for t in dead_tables])
        pres, all_pfns = present_pfns(matrix)
        counts = _row_counts(pres, len(all_pfns))
        if has_duplicates(all_pfns):
            # A duplicate pfn across slots changes which slot's free_bulk
            # batch releases the page; keep the per-event grouping.
            count_bail(kernel, "exit", "duplicate_pfns")
            return False
        if kernel.swap is not None:
            swapped = swap_mask(matrix)
            has_swap = bool(swapped.any())
            if has_swap and _slot_release_frees_unmapped(
                    kernel, matrix[swapped], all_pfns):
                count_bail(kernel, "exit", "swap_release")
                return False
    heads = entry_pfn(entries[huge_positions]).astype(np.int64)
    if has_duplicates(heads):
        count_bail(kernel, "exit", "duplicate_pfns")
        return False

    cost = kernel.cost
    p = cost.params
    charge_ids = []
    charge_ns = []

    # ---- shared leaf tables: one refcount decrement each ----------------
    if shared_tables:
        n_dropped = drop_shared_tables(mm, pmd_table,
                                       leaf_positions[surviving],
                                       shared_tables)
        charge_ids.append(np.array([_ID_PUT], dtype=np.int64))
        charge_ns.append(np.array([p.odf_table_put * n_dropped]))

    # ---- dedicated leaf tables: zap + put + free -------------------------
    if dead_tables:
        n_dead = len(dead_tables)
        offsets = np.zeros(n_dead + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # all_pfns is duplicate-free (the has_duplicates bail), so the
        # mapcount update needs no proof of its own, and one gather and
        # one scatter decrement every page exactly once.  Reverse
        # mappings first: eligibility reads page flags, which the bulk
        # free below resets.
        rmap_remove_bulk(kernel, all_pfns, _unique=True)
        newrefs = pages.refcount.take(all_pfns)
        newrefs -= 1
        pages.refcount[all_pfns] = newrefs
        if len(newrefs) and newrefs.min() < 0:
            bad = all_pfns[newrefs < 0]
            raise KernelBug(
                f"page refcount underflow on pfns {bad[:8].tolist()}")
        # zeroed[zeroed_at[i]:zeroed_at[i + 1]] are table i's freed pages.
        zeroed_mask = newrefs == 0
        n_zeroed = int(np.count_nonzero(zeroed_mask))
        if n_zeroed == len(all_pfns):
            zeroed, zeroed_at = all_pfns, offsets.tolist()
        elif n_zeroed == 0:
            zeroed, zeroed_at = all_pfns[:0], [0] * (n_dead + 1)
        else:
            zeroed = all_pfns[zeroed_mask]
            zeroed_at = np.searchsorted(np.flatnonzero(zeroed_mask),
                                        offsets).tolist()
        if n_zeroed:
            if _count_flagged(pages.flags, zeroed, PG_FILE):
                raise KernelBug(
                    "file page refcount dropped to zero outside the cache")
            pages.on_free_bulk(zeroed)
        # One swap-map decrement covers every dead table; each slot whose
        # last reference goes is released at the table that held it.
        released = (kernel.swap_put_rows(matrix) if has_swap
                    else [()] * n_dead)
        # Only buddy calls stay in the per-table loop: buddy coalescing is
        # call-local, so their order is allocator state.  Each table's
        # pages go first, then its released swap slots (a slot's last
        # reference frees its swap-cache frame), then the table frame, as
        # in the per-event walk.
        allocator = kernel.allocator
        release_swap_slot = kernel.release_swap_slot
        for i, table in enumerate(dead_tables):
            lo, hi = zeroed_at[i], zeroed_at[i + 1]
            if hi > lo:
                # ref_dec_bulk hands free_anon_frames a sorted unique
                # array; free_bulk re-sorts internally and the slice is
                # duplicate-free (the has_duplicates bail), so passing it
                # unsorted reaches the identical allocator state.
                allocator.free_bulk(zeroed[lo:hi])
            for slot in released[i]:
                release_swap_slot(slot)
            allocator.free(table.pfn, 0)
        # Each dead table's only sharer is this mm.
        strays = [t.pfn for t in dead_tables if t.sharers != [mm]]
        if strays:
            raise KernelBug(f"mm {mm.owner_pid} is not a registered sharer "
                            f"of tables {strays[:8]}")
        if kernel.rmap is not None:
            kernel.rmap.leave(dead_tables)
        # Re-zeroes the packed rows and drops each table's sharer list.
        kernel.unregister_table(dead_tables)
        kernel.phys.zero_bulk(zeroed)
        kernel.phys.zero_bulk(dead_pfns)
        pages.on_free_bulk(dead_pfns)
        entries[leaf_positions[~surviving]] = ENTRY_NONE
        ids = np.empty((n_dead, 3), dtype=np.int64)
        ids[:] = (_ID_ZAP, _ID_PUT, _ID_FREE)
        ns = np.empty((n_dead, 3), dtype=np.float64)
        ns[:, 0] = p.zap_per_pte * counts.astype(np.float64)
        ns[:, 1] = p.odf_table_put * 1
        ns[:, 2] = p.table_free * 1
        charge_ids.append(ids.ravel())
        charge_ns.append(ns.ravel())

    # ---- huge entries ----------------------------------------------------
    if len(huge_positions):
        entries[huge_positions] = ENTRY_NONE
        pages.refcount[heads] -= 1
        newrefs = pages.refcount[heads]
        if np.any(newrefs < 0):
            raise KernelBug(
                f"page refcount underflow on pfns {heads[:8].tolist()}")
        for head in heads[newrefs == 0].tolist():
            kernel.free_huge_frame(head)
        charge_ids.append(np.full(len(huge_positions), _ID_ZAP, dtype=np.int64))
        charge_ns.append(np.full(len(huge_positions), p.zap_per_pte * 1))

    if charge_ids:
        cost.charge_many(np.concatenate(charge_ids),
                         np.concatenate(charge_ns), _EXIT_FNS)
    kernel.fastpath_counts["exit_engaged"] += 1
    return True
