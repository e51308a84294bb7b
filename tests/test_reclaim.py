"""Memory reclaim & swap: LRU aging, kswapd, rmap unmap, swap-entry PTEs."""

import pytest

from repro.verify.audit import audit_machine
from repro import MADV_DONTNEED, MIB, Machine, OutOfMemoryError
from repro.errors import KernelBug
from repro.mem.page import PAGE_SIZE, PG_ANON
from repro.paging import (
    entry_pfn,
    is_present,
    is_swap_entry,
    make_entry,
    make_swap_entry,
    swap_entry_slot,
    swap_entry_type,
    swap_mask,
)

import numpy as np


def swap_machine(phys_mb=16, swap_mb=64, **kw):
    return Machine(phys_mb=phys_mb, swap_mb=swap_mb, **kw)


class TestSwapEntryEncoding:
    def test_roundtrip(self):
        for slot in (0, 1, 511, 4096, (1 << 30) - 1):
            entry = make_swap_entry(slot)
            assert not is_present(entry)
            assert is_swap_entry(entry)
            assert int(swap_entry_slot(entry)) == slot
            assert int(swap_entry_type(entry)) == 0

    def test_type_field(self):
        entry = make_swap_entry(7, swap_type=3)
        assert int(swap_entry_type(entry)) == 3
        assert int(swap_entry_slot(entry)) == 7

    def test_mask_vectorised(self):
        from repro.paging import make_entry
        entries = np.array(
            [make_swap_entry(9), make_entry(5, writable=True, user=True),
             np.uint64(0)], dtype=np.uint64)
        assert swap_mask(entries).tolist() == [True, False, False]

    def test_plain_entries_are_not_swap(self):
        from repro.paging import ENTRY_NONE, make_entry
        assert not is_swap_entry(ENTRY_NONE)
        assert not is_swap_entry(make_entry(42, writable=True, user=True))


class TestSwapOptIn:
    def test_default_machine_has_no_swap(self):
        machine = Machine(phys_mb=16)
        kernel = machine.kernel
        assert kernel.swap is None
        assert kernel.swap_cache is None
        assert kernel.rmap is None
        assert kernel.reclaim is None

    def test_swap_machine_wires_subsystem(self):
        machine = swap_machine()
        kernel = machine.kernel
        assert len(kernel.swap) == 64 * MIB // PAGE_SIZE
        assert kernel.reclaim.wm_min < kernel.reclaim.wm_low < kernel.reclaim.wm_high

    def test_vmstat_gauges(self):
        machine = swap_machine()
        v = machine.vmstat()
        for key in ("pswpin", "pswpout", "pgscan", "pgsteal", "kswapd_wakeups",
                    "shared_table_unmaps", "nr_free_pages", "nr_active_anon",
                    "nr_inactive_anon", "swap_total_slots", "swap_used_slots"):
            assert key in v, key


class TestOvercommit:
    def test_2x_overcommit_survives(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        size = 32 * MIB  # 2x physical memory
        addr = p.mmap(size)
        p.touch_range(addr, size, write=True)  # must not OOM
        v = machine.vmstat()
        assert v["pswpout"] > 0
        assert v["swap_used_slots"] > 0
        audit_machine(machine)

    def test_data_survives_swap_roundtrip(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        n = 32 * MIB // PAGE_SIZE
        addr = p.mmap(32 * MIB)
        for i in range(n):
            p.write(addr + i * PAGE_SIZE, i.to_bytes(8, "little"))
        assert machine.stats.pswpout > 0
        for i in range(n):
            assert p.read(addr + i * PAGE_SIZE, 8) == i.to_bytes(8, "little")
        assert machine.stats.pswpin > 0
        audit_machine(machine)

    def test_swap_exhaustion_still_ooms(self):
        machine = swap_machine(phys_mb=8, swap_mb=4)
        p = machine.spawn_process("hog")
        addr = p.mmap(64 * MIB)
        with pytest.raises(OutOfMemoryError):
            p.touch_range(addr, 64 * MIB, write=True)
        machine.check_frame_invariants()

    def test_kswapd_keeps_free_above_min(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(24 * MIB)
        p.touch_range(addr, 24 * MIB, write=True)
        v = machine.vmstat()
        assert v["kswapd_wakeups"] > 0
        assert v["nr_free_pages"] >= machine.kernel.reclaim.wm_min


class TestLRUAging:
    def test_second_chance_prefers_cold_pages(self):
        machine = swap_machine(phys_mb=64, swap_mb=64)
        kernel = machine.kernel
        p = machine.spawn_process("worker")
        hot = p.mmap(1 * MIB)
        cold = p.mmap(1 * MIB)
        p.touch_range(cold, 1 * MIB, write=True)
        p.touch_range(hot, 1 * MIB, write=True)
        # Age everything onto the inactive list, then re-reference hot:
        # the referenced bit gives hot pages a second chance.
        p.touch_range(hot, 1 * MIB, write=False)
        n = 1 * MIB // PAGE_SIZE
        freed = kernel.reclaim.shrink(n // 2, from_kswapd=False)
        assert freed > 0

        # Count swapped-out pages per region by probing the leaf entries.
        def swapped_pages(base):
            from repro.paging import entry_pfn
            from repro.paging.table import LEVEL_PTE, table_index
            count = 0
            for i in range(n):
                vaddr = base + i * PAGE_SIZE
                walked = p.mm.walk_to_pmd(vaddr, alloc=False)
                if walked is None:
                    continue
                pmd, idx = walked
                if not is_present(pmd.entries[idx]):
                    continue
                leaf = p.mm.resolve(int(entry_pfn(pmd.entries[idx])))
                if is_swap_entry(leaf.entries[table_index(vaddr, LEVEL_PTE)]):
                    count += 1
            return count

        assert swapped_pages(cold) > swapped_pages(hot)
        audit_machine(machine)

    def test_lru_empties_on_exit(self):
        machine = swap_machine()
        p = machine.spawn_process("w")
        addr = p.mmap(2 * MIB)
        p.touch_range(addr, 2 * MIB, write=True)
        r = machine.kernel.reclaim
        assert len(r.active) + len(r.inactive) > 0
        p.exit()
        assert len(r.active) + len(r.inactive) == 0
        audit_machine(machine)


class TestForkUnderPressure:
    def test_cow_isolation_through_shared_tables_and_swap(self):
        machine = swap_machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("server")
        size = 4 * MIB
        n = size // PAGE_SIZE
        addr = p.mmap(size)
        for i in range(n):
            p.write(addr + i * PAGE_SIZE, (i * 7).to_bytes(8, "little"))
        child = p.odfork()
        # Evict the shared pages straight through the shared leaf tables.
        freed = machine.kernel.reclaim.shrink(n, from_kswapd=False)
        assert freed > 0
        assert machine.stats.shared_table_unmaps > 0
        # Child rewrites every page; parent must keep the original bytes.
        for i in range(n):
            child.write(addr + i * PAGE_SIZE, (i * 13 + 1).to_bytes(8, "little"))
        for i in range(n):
            assert p.read(addr + i * PAGE_SIZE, 8) == (i * 7).to_bytes(8, "little")
            assert child.read(addr + i * PAGE_SIZE, 8) == \
                (i * 13 + 1).to_bytes(8, "little")
        audit_machine(machine)

    def test_sharers_converge_on_swap_cache(self):
        machine = swap_machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("server")
        addr = p.mmap(1 * MIB)
        p.touch_range(addr, 1 * MIB, write=True)
        child = p.odfork()
        n = 1 * MIB // PAGE_SIZE
        machine.kernel.reclaim.shrink(n, from_kswapd=False)
        assert machine.stats.pswpout > 0
        p.touch_range(addr, 1 * MIB, write=False)   # swap everything back in
        swapins = machine.stats.pswpin
        child.touch_range(addr, 1 * MIB, write=False)
        # The second sharer finds the frames in the swap cache: no new I/O.
        assert machine.stats.pswpin == swapins
        assert machine.stats.swap_cache_hits > 0
        audit_machine(machine)

    def test_fork_server_overcommit(self):
        # A fork-server whose total footprint (parent + divergent children)
        # exceeds physical memory must keep working.
        machine = swap_machine(phys_mb=16, swap_mb=128)
        p = machine.spawn_process("server")
        size = 8 * MIB
        addr = p.mmap(size)
        p.touch_range(addr, size, write=True)
        for round_no in range(4):
            child = p.odfork()
            child.touch_range(addr, size, write=True)  # full divergence
            child.exit()
            p.wait()
        assert machine.stats.pswpout > 0
        audit_machine(machine)


class TestSlotLifecycle:
    def test_exit_releases_slots(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(24 * MIB)
        p.touch_range(addr, 24 * MIB, write=True)
        assert machine.kernel.swap.used_slots > 0
        p.exit()
        assert machine.kernel.swap.used_slots == 0
        assert len(machine.kernel.swap_cache) == 0
        audit_machine(machine)

    def test_madvise_dontneed_releases_slots(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(24 * MIB)
        p.touch_range(addr, 24 * MIB, write=True)
        assert machine.kernel.swap.used_slots > 0
        p.madvise(addr, 24 * MIB, MADV_DONTNEED)
        assert machine.kernel.swap.used_slots == 0
        audit_machine(machine)

    def test_munmap_releases_slots(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(24 * MIB)
        p.touch_range(addr, 24 * MIB, write=True)
        assert machine.kernel.swap.used_slots > 0
        p.munmap(addr, 24 * MIB)
        assert machine.kernel.swap.used_slots == 0
        audit_machine(machine)

    @staticmethod
    def _slots_with_cache():
        """Five live slots; slots 0 and 3 have swap-cache frames."""
        machine = swap_machine(phys_mb=16, swap_mb=16)
        kernel = machine.kernel
        slots = [kernel.swap.alloc_slot() for _ in range(5)]
        for slot, refs in zip(slots, (2, 3, 1, 1, 2)):
            kernel.swap_dup(slot, refs)
        for slot in (slots[0], slots[3]):
            pfn = int(machine.allocator.alloc(0))
            kernel.pages.on_alloc(pfn, PG_ANON)
            kernel.swap_cache.add(slot, pfn)
        return machine, slots

    def test_swap_put_entries_matches_the_per_entry_loop(self):
        # Slot 0 is listed twice and dies at its second entry, slot 1 is
        # listed twice and survives, slots 2 and 3 die, slot 4 survives.
        order = (0, 1, 3, 0, 2, 1, 4)
        vector, slots = self._slots_with_cache()
        vector.kernel.swap_put_entries(np.array(
            [make_swap_entry(slots[i]) for i in order], dtype=np.uint64))
        loop, slots = self._slots_with_cache()
        for i in order:
            loop.kernel.swap_put(slots[i])
        assert vector.kernel.swap.swap_map.tolist() == \
            loop.kernel.swap.swap_map.tolist()
        assert vector.kernel.swap._free == loop.kernel.swap._free
        assert dict(vector.kernel.swap_cache.items()) == \
            dict(loop.kernel.swap_cache.items())
        assert vector.allocator._free_lists == loop.allocator._free_lists
        assert vector.pages.refcount.tolist() == loop.pages.refcount.tolist()

    @staticmethod
    def _rows_machine():
        """Six live slots (three with swap-cache frames), one frame per
        table row to free after its releases, and the rows: slot 0 dies
        at its third entry (rows 0 and 2), slot 1 at row 1, slot 3 in
        row 2, slot 4 at its second entry in row 0; slots 2 and 5
        survive.  Present entries and empty ones sit in between."""
        machine = swap_machine(phys_mb=16, swap_mb=16)
        kernel = machine.kernel
        slots = [kernel.swap.alloc_slot() for _ in range(6)]
        for slot, refs in zip(slots, (3, 2, 3, 1, 2, 4)):
            kernel.swap_dup(slot, refs)
        for slot in (slots[0], slots[1], slots[4]):
            pfn = int(machine.allocator.alloc(0))
            kernel.pages.on_alloc(pfn, PG_ANON)
            kernel.swap_cache.add(slot, pfn)
        frames = [int(machine.allocator.alloc(0)) for _ in range(3)]
        layout = ((4, 0, None, 5, 1, 4, 0),
                  (2, None, 1, 5, 2, None, None),
                  (None, 3, 5, None, 0, None, None))
        rows = np.array(
            [[make_entry(frames[0], user=True) if i is None
              else make_swap_entry(slots[i]) for i in row]
             for row in layout], dtype=np.uint64)
        rows[1, 1] = 0
        return machine, slots, frames, rows

    @staticmethod
    def _recording(machine):
        released = []
        release = machine.kernel.release_swap_slot

        def record(slot):
            released.append(slot)
            release(slot)

        machine.kernel.release_swap_slot = record
        return released

    def test_swap_put_rows_matches_one_swap_put_entries_per_row(self):
        batch, slots, frames, rows = self._rows_machine()
        per_row = batch.kernel.swap_put_rows(rows)
        assert per_row == [[slots[4]], [slots[1]], [slots[3], slots[0]]]
        batch_order = self._recording(batch)
        for row_slots, frame in zip(per_row, frames):
            for slot in row_slots:
                batch.kernel.release_swap_slot(slot)
            batch.allocator.free(frame, 0)

        loop, slots, frames, rows = self._rows_machine()
        loop_order = self._recording(loop)
        for row, frame in zip(rows, frames):
            loop.kernel.swap_put_entries(row)
            loop.allocator.free(frame, 0)

        assert batch_order == loop_order
        assert batch.kernel.swap.swap_map.tolist() == \
            loop.kernel.swap.swap_map.tolist()
        assert batch.kernel.swap._free == loop.kernel.swap._free
        assert dict(batch.kernel.swap_cache.items()) == \
            dict(loop.kernel.swap_cache.items())
        assert batch.allocator._free_lists == loop.allocator._free_lists
        assert batch.pages.refcount.tolist() == loop.pages.refcount.tolist()

    def test_swap_put_rows_without_swap_entries_releases_nothing(self):
        machine, _, frames, _ = self._rows_machine()
        before = machine.kernel.swap.swap_map.tolist()
        rows = np.zeros((2, 512), dtype=np.uint64)
        rows[0, 7] = make_entry(frames[0], user=True)
        assert machine.kernel.swap_put_rows(rows) == [[], []]
        assert machine.kernel.swap.swap_map.tolist() == before

    def test_swap_put_entries_underflow_is_a_kernel_bug(self):
        machine, slots = self._slots_with_cache()
        entries = np.array([make_swap_entry(slots[2])] * 2, dtype=np.uint64)
        with pytest.raises(KernelBug, match="swap_map underflow"):
            machine.kernel.swap_put_entries(entries)

    def test_zero_page_needs_no_swap_storage(self):
        # Never-written pages store nothing on the device: eviction of a
        # zero page records the slot but keeps no bytes.
        machine = swap_machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("z")
        addr = p.mmap(1 * MIB)
        p.touch_range(addr, 1 * MIB, write=False)
        n = 1 * MIB // PAGE_SIZE
        machine.kernel.reclaim.shrink(n, from_kswapd=False)
        dev = machine.kernel.swap
        assert dev.used_slots > 0
        assert len(dev._data) == 0
        assert p.read(addr, 8) == b"\x00" * 8
        audit_machine(machine)


class TestReclaimCostModel:
    def test_kswapd_work_is_background(self):
        machine = swap_machine(phys_mb=16, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(20 * MIB)
        p.touch_range(addr, 20 * MIB, write=True)
        assert machine.stats.kswapd_wakeups > 0
        assert machine.stats.pswpout > 0
        if machine.stats.direct_reclaims == 0:
            # All write-out happened on the kswapd thread: none of it may
            # appear on the foreground task's clock.
            assert machine.profiler.total_ns(["swap_writepage"]) == 0
        # Faulting a swapped page back in is foreground work.
        p.touch_range(addr, 20 * MIB, write=False)
        assert machine.profiler.total_ns(["swap_readpage"]) > 0

    def test_direct_reclaim_charged_foreground(self):
        machine = swap_machine(phys_mb=8, swap_mb=64)
        p = machine.spawn_process("hog")
        addr = p.mmap(16 * MIB)
        before = machine.now_ns
        p.touch_range(addr, 16 * MIB, write=True)
        assert machine.now_ns > before
        assert machine.stats.pswpout > 0


def _pte(process, vaddr):
    """``(leaf table, entry)`` mapping ``vaddr`` in ``process``."""
    from repro.paging.table import LEVEL_PTE, table_index
    leaf = process.mm.get_pte_table(vaddr)
    return leaf, leaf.entries[table_index(vaddr, LEVEL_PTE)]


class TestRmapHomes:
    """Pages keep their one rmap home through mremap.

    A classic-fork child's tables join the parent's table families, so a
    shared page's two PTEs sit at one home.  An mremap in the child keeps
    the mapping's offset within its 2 MiB slot and moves its PTE into a
    table of the same family: the page keeps its one home, and the
    reverse lookup must still find (and unmap) both PTEs.
    """

    def _forked_then_moved(self):
        machine = swap_machine(phys_mb=64, swap_mb=64)
        parent = machine.spawn_process("parent")
        addr = parent.mmap(1 * MIB)
        parent.mmap(PAGE_SIZE)        # a neighbour: growing addr must move
        parent.write(addr, b"original")
        child = parent.fork()
        moved = child.mremap(addr, 1 * MIB, 1 * MIB + PAGE_SIZE)
        assert moved != addr
        return machine, parent, child, addr, moved

    def test_eviction_unmaps_both_ptes_of_a_moved_page(self):
        machine, parent, child, addr, moved = self._forked_then_moved()
        rmap = machine.kernel.rmap
        parent_leaf, parent_pte = _pte(parent, addr)
        child_leaf, child_pte = _pte(child, moved)
        pfn = int(entry_pfn(parent_pte))
        assert int(entry_pfn(child_pte)) == pfn
        assert parent_leaf.family == child_leaf.family
        assert (moved - addr) % (2 * MIB) == 0
        assert rmap.mapcount[pfn] == 2
        assert sorted(rmap.tables_for(pfn)) == sorted(
            [parent_leaf.pfn, child_leaf.pfn])
        audit_machine(machine)

        rss = (parent.mm.rss_anon_pages, child.mm.rss_anon_pages)
        assert machine.kernel.reclaim.shrink(1, from_kswapd=False) == 1
        _, parent_pte = _pte(parent, addr)
        _, child_pte = _pte(child, moved)
        assert is_swap_entry(parent_pte)
        assert parent_pte == child_pte
        slot = int(swap_entry_slot(parent_pte))
        assert machine.kernel.swap.swap_map[slot] == 2
        assert (parent.mm.rss_anon_pages, child.mm.rss_anon_pages) == \
            (rss[0] - 1, rss[1] - 1)
        assert rmap.mapcount[pfn] == 0
        audit_machine(machine)

    def test_swap_cache_hit_through_a_moved_swap_entry(self):
        # Evict first, then move: the child's swap entry is what moves,
        # and the cache hit maps the page at its home.
        machine = swap_machine(phys_mb=64, swap_mb=64)
        parent = machine.spawn_process("parent")
        addr = parent.mmap(1 * MIB)
        parent.mmap(PAGE_SIZE)
        parent.write(addr, b"original")
        child = parent.fork()
        assert machine.kernel.reclaim.shrink(1, from_kswapd=False) == 1
        moved = child.mremap(addr, 1 * MIB, 1 * MIB + PAGE_SIZE)
        assert is_swap_entry(_pte(child, moved)[1])
        audit_machine(machine)

        assert parent.read(addr, 8) == b"original"      # swap-in at home
        hits = machine.stats.swap_cache_hits
        assert child.read(moved, 8) == b"original"      # cache hit, away
        assert machine.stats.swap_cache_hits == hits + 1
        assert machine.stats.pswpin == 1
        rmap = machine.kernel.rmap
        pfn = int(entry_pfn(_pte(parent, addr)[1]))
        assert int(entry_pfn(_pte(child, moved)[1])) == pfn
        assert rmap.mapcount[pfn] == 2
        assert (_pte(parent, addr)[0].family
                == _pte(child, moved)[0].family)
        audit_machine(machine)

        assert machine.kernel.reclaim.shrink(1, from_kswapd=False) == 1
        parent_pte = _pte(parent, addr)[1]
        assert is_swap_entry(parent_pte)
        assert parent_pte == _pte(child, moved)[1]
        audit_machine(machine)
        assert child.read(moved, 8) == b"original"
        assert parent.read(addr, 8) == b"original"
        audit_machine(machine)
