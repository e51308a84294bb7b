"""mremap: shrink, grow in place, move — including the §3.3 COW cases."""

import numpy as np
import pytest

from repro import (
    MADV_HUGEPAGE,
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_PRIVATE,
    MIB,
    Machine,
    SegmentationFault,
)
from repro.errors import InvalidArgumentError, KernelBug
from repro.kernel.mm import MMStruct
from repro.kernel.rmap import rmap_move
from repro.mem.page import PAGE_SIZE, PTRS_PER_TABLE
from repro.paging import VA_LIMIT, swap_mask
from repro.verify.audit import audit_machine
from conftest import make_filled_region

FIXED = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED


class TestShrink:
    def test_shrink_in_place(self, proc):
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"head")
        proc.write(addr + 900 * 1024, b"tail")
        new_addr = proc.mremap(addr, 1 * MIB, 512 * 1024)
        assert new_addr == addr
        assert proc.read(addr, 4) == b"head"
        with pytest.raises(SegmentationFault):
            proc.read(addr + 900 * 1024, 1)

    def test_shrink_with_shared_table_copies(self, proc, machine):
        """Shrinking inside a shared 2 MiB slot is a COW-on-unmap."""
        addr, _ = make_filled_region(proc, size=2 * MIB)
        child = proc.odfork()
        copies_before = machine.stats.table_cow_copies
        child.mremap(addr, 2 * MIB, 1 * MIB)
        assert machine.stats.table_cow_copies == copies_before + 1
        # Parent keeps the full mapping.
        assert proc.read(addr + 2 * MIB - 4096, 1) is not None


class TestGrow:
    def test_grow_in_place_when_room(self, proc):
        addr = proc.mmap(512 * 1024)
        proc.write(addr, b"data")
        new_addr = proc.mremap(addr, 512 * 1024, 1 * MIB)
        assert new_addr == addr
        assert proc.read(addr, 4) == b"data"
        proc.write(addr + 900 * 1024, b"grown")
        assert proc.read(addr + 900 * 1024, 5) == b"grown"

    def test_grow_moves_when_blocked(self, proc):
        a = proc.mmap(512 * 1024)
        proc.write(a, b"moving data")
        proc.write(a + 500 * 1024, b"near end")
        # Block in-place growth with an adjacent mapping.
        proc.mmap(64 * 1024, addr=a + 512 * 1024,
                  flags=0b100101)  # MAP_PRIVATE|MAP_ANONYMOUS|MAP_FIXED
        new_addr = proc.mremap(a, 512 * 1024, 2 * MIB)
        assert new_addr != a
        assert proc.read(new_addr, 11) == b"moving data"
        assert proc.read(new_addr + 500 * 1024, 8) == b"near end"
        with pytest.raises(SegmentationFault):
            proc.read(a, 1)

    def test_grow_no_move_rejected_when_blocked(self, proc):
        a = proc.mmap(512 * 1024)
        proc.mmap(64 * 1024, addr=a + 512 * 1024, flags=0b100101)
        with pytest.raises(InvalidArgumentError):
            proc.mremap(a, 512 * 1024, 2 * MIB, may_move=False)

    def test_grow_past_the_user_half_moves(self, proc, machine):
        """Like a MAP_FIXED range, a grown one must end inside the user
        half: a mapping at its top moves, and a fork sees the grown tail."""
        top = proc.mmap(8192, addr=VA_LIMIT - 8192,
                        flags=MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        proc.write(top, b"head")
        with pytest.raises(InvalidArgumentError):
            proc.mremap(top, 8192, 32768, may_move=False)
        new_addr = proc.mremap(top, 8192, 32768)
        assert new_addr + 32768 <= VA_LIMIT
        proc.write(new_addr + 24576, b"tail")
        child = proc.fork()
        assert child.read(new_addr, 4) == b"head"
        assert child.read(new_addr + 24576, 4) == b"tail"
        assert child.rss_bytes == proc.rss_bytes == 8192
        child.exit()
        proc.exit()
        audit_machine(machine)


class TestMove:
    def test_move_preserves_cow_relationships(self, proc, machine):
        """Moved entries keep sharing data pages with the fork child."""
        addr, _ = make_filled_region(proc, size=1 * MIB)
        proc.write(addr, b"shared page")
        child = proc.fork()
        # Force a move of the parent's mapping.
        proc.mmap(64 * 1024, addr=addr + 1 * MIB, flags=0b100101)
        new_addr = proc.mremap(addr, 1 * MIB, 4 * MIB)
        assert proc.read(new_addr, 11) == b"shared page"
        # COW still intact: parent write does not affect the child.
        proc.write(new_addr, b"parent-only")
        assert child.read(addr, 11) == b"shared page"

    def test_move_from_shared_table_copies_first(self, proc, machine):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        child = proc.odfork()
        proc.mmap(64 * 1024, addr=addr + 2 * MIB, flags=0b100101)
        copies_before = machine.stats.table_cow_copies
        new_addr = proc.mremap(addr, 2 * MIB, 4 * MIB)
        assert machine.stats.table_cow_copies >= copies_before + 1
        # The child still translates through the old (shared) table.
        assert child.read(addr, 3) is not None
        assert proc.read(new_addr, 3) is not None

    def test_move_page_refcounts_stable(self, proc, machine):
        """Entry moves transfer ownership: no refcount churn."""
        addr = proc.mmap(128 * 1024)
        proc.write(addr, b"x")
        leaf = proc.mm.get_pte_table(addr)
        pfn = leaf.child_pfn((addr >> 12) & 511)
        assert machine.pages.get_ref(pfn) == 1
        proc.mmap(64 * 1024, addr=addr + 128 * 1024, flags=0b100101)
        proc.mremap(addr, 128 * 1024, 256 * 1024)
        assert machine.pages.get_ref(pfn) == 1


class TestPartialRange:
    """mremap of a mapping's head grows in place only from the VMA's end
    (Linux's ``vma_expandable``); otherwise the head moves alone and the
    rest of the VMA stays where it is."""

    @staticmethod
    def _touched(proc):
        a = proc.mmap(1 * MIB)
        proc.touch_range(a, 1 * MIB, write=True)
        proc.write(a + 10 * PAGE_SIZE, b"head")
        proc.write(a + 900 * 1024, b"tail")
        return a

    @pytest.mark.parametrize("blocked", [False, True],
                             ids=["room", "blocked"])
    def test_growing_the_head_moves_it_and_keeps_the_tail(self, proc,
                                                          machine, blocked):
        a = self._touched(proc)
        if blocked:
            proc.mmap(64 * 1024, addr=a + 1 * MIB, flags=FIXED)
        new = proc.mremap(a, 512 * 1024, 768 * 1024)
        assert new != a
        assert proc.read(new + 10 * PAGE_SIZE, 4) == b"head"
        assert proc.read(a + 900 * 1024, 4) == b"tail"
        with pytest.raises(SegmentationFault):
            proc.read(a, 1)
        assert proc.rss_bytes == 1 * MIB
        proc.write(new + 700 * 1024, b"grown")
        assert proc.rss_bytes == 1 * MIB + PAGE_SIZE
        audit_machine(machine)

    def test_growing_the_head_without_moving_is_refused(self, proc, machine):
        a = self._touched(proc)
        with pytest.raises(InvalidArgumentError):
            proc.mremap(a, 512 * 1024, 768 * 1024, may_move=False)
        assert proc.read(a + 900 * 1024, 4) == b"tail"
        assert proc.rss_bytes == 1 * MIB
        audit_machine(machine)


class TestRmapHomesKept:
    """A move keeps every PTE at its page's rmap home: the new range keeps
    the old one's offset within a 2 MiB slot, and each target leaf, built
    once per slot, joins its source leaf's family."""

    def test_one_walk_and_target_leaf_per_slot(self, monkeypatch):
        machine = Machine(phys_mb=64)
        p = machine.spawn_process("p")
        addr = p.mmap(4 * MIB)
        assert addr % (2 * MIB) == 0
        p.touch_range(addr, 4 * MIB, write=True)
        p.mmap(64 * 1024, addr=addr + 4 * MIB, flags=FIXED)
        walks = []
        walk_to_pmd = MMStruct.walk_to_pmd

        def counted(mm, *args, **kwargs):
            walks.append(args)
            return walk_to_pmd(mm, *args, **kwargs)

        monkeypatch.setattr(MMStruct, "walk_to_pmd", counted)
        failpoints = machine.kernel.failpoints
        failpoints.record()
        new = p.mremap(addr, 4 * MIB, 6 * MIB)
        failpoints.disarm()
        assert new != addr
        assert len(walks) == 2
        assert failpoints.counts["mremap.target_leaf"] == 2
        assert failpoints.counts["mremap.move_slot"] == 2
        audit_machine(machine)

    @pytest.mark.parametrize("shape", ["odfork-shared", "thp-collapsed",
                                       "swapped-out"])
    def test_moved_pages_keep_their_homes(self, shape):
        machine = Machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("mover")
        addr = p.mmap(4 * MIB)
        if shape == "thp-collapsed":
            p.madvise(addr, 4 * MIB, MADV_HUGEPAGE)
        p.touch_range(addr, 4 * MIB, write=True)
        p.write(addr + 5 * PAGE_SIZE, b"marker")
        if shape == "thp-collapsed":
            assert machine.run_khugepaged(p) == 2
        other = p.odfork() if shape == "odfork-shared" else p.fork()
        if shape == "swapped-out":
            assert machine.kernel.reclaim.shrink(64, from_kswapd=False) > 0
        p.mmap(64 * 1024, addr=addr + 4 * MIB, flags=FIXED)
        new = p.mremap(addr, 4 * MIB, 6 * MIB)
        assert new != addr and (new - addr) % (2 * MIB) == 0
        if shape == "swapped-out":
            assert any(swap_mask(leaf.entries).any()
                       for _, _, leaf in p.mm.leaf_tables())
        audit_machine(machine)
        assert machine.kernel.reclaim.shrink(512, from_kswapd=False) > 0
        audit_machine(machine)
        assert p.read(new + 5 * PAGE_SIZE, 6) == b"marker"
        assert other.read(addr + 5 * PAGE_SIZE, 6) == b"marker"
        other.exit()
        p.wait()
        audit_machine(machine)

    def test_rmap_move_raises_on_a_pte_away_from_its_home(self):
        machine = Machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("p")
        addr = p.mmap(64 * 1024)
        p.touch_range(addr, 64 * 1024, write=True)
        leaf = p.mm.get_pte_table(addr)
        index = addr // PAGE_SIZE % PTRS_PER_TABLE
        rmap_move(machine.kernel, leaf, np.array([index, index + 1]))
        stray = index + 20                  # past the 16-page mapping
        leaf.entries[stray] = leaf.entries[index]
        with pytest.raises(KernelBug, match="away from its home"):
            rmap_move(machine.kernel, leaf, np.array([stray]))


class TestValidation:
    def test_same_size_noop(self, proc):
        addr = proc.mmap(64 * 1024)
        assert proc.mremap(addr, 64 * 1024, 64 * 1024) == addr

    def test_bad_ranges_rejected(self, proc):
        addr = proc.mmap(64 * 1024)
        with pytest.raises(InvalidArgumentError):
            proc.mremap(addr + 4096, 64 * 1024, 128 * 1024)  # not VMA start
        with pytest.raises(InvalidArgumentError):
            proc.mremap(addr, 0, 128 * 1024)
        with pytest.raises(InvalidArgumentError):
            proc.mremap(0x700000000000, 4096, 8192)  # unmapped
