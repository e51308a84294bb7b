"""Transparent Huge Pages (khugepaged) and madvise."""

import pytest

from repro import MIB, Machine, SegmentationFault, PROT_READ
from repro.errors import InvalidArgumentError
from repro.kernel.kernel import MADV_DONTNEED, MADV_HUGEPAGE, MADV_NOHUGEPAGE
from repro.paging import is_huge
from repro.verify import audit_machine


def thp_ready_process(machine, size=8 * MIB):
    p = machine.spawn_process("thp")
    addr = p.mmap(size)
    p.touch_range(addr, size, write=True)
    p.madvise(addr, size, MADV_HUGEPAGE)
    return p, addr


class TestMadvise:
    def test_dontneed_zaps_but_keeps_mapping(self, proc, machine):
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"data")
        live = machine.live_data_frames()
        proc.madvise(addr, 1 * MIB, MADV_DONTNEED)
        assert machine.live_data_frames() < live
        # Mapping survives: next access demand-zeroes.
        assert proc.read(addr, 4) == bytes(4)

    def test_dontneed_fuzzer_reset_pattern(self, proc, machine):
        """The CCS'17-style reset: DONTNEED instead of re-fork."""
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"state from run 1")
        proc.madvise(addr, 1 * MIB, MADV_DONTNEED)
        proc.write(addr, b"state from run 2")
        assert proc.read(addr, 16) == b"state from run 2"

    def test_hugepage_advice_sets_flags(self, proc):
        addr = proc.mmap(4 * MIB)
        proc.madvise(addr, 4 * MIB, MADV_HUGEPAGE)
        vma = proc.mm.vmas.find(addr)
        assert vma.thp_enabled
        proc.madvise(addr, 4 * MIB, MADV_NOHUGEPAGE)
        vma = proc.mm.vmas.find(addr)
        assert vma.thp_disabled and not vma.thp_enabled

    def test_partial_advice_splits_vma(self, proc):
        addr = proc.mmap(4 * MIB)
        proc.madvise(addr, 2 * MIB, MADV_HUGEPAGE)
        assert proc.mm.vmas.find(addr).thp_enabled
        assert not proc.mm.vmas.find(addr + 2 * MIB).thp_enabled

    def test_invalid_arguments(self, proc):
        addr = proc.mmap(1 * MIB)
        with pytest.raises(InvalidArgumentError):
            proc.madvise(addr, 1 * MIB, 999)
        with pytest.raises(InvalidArgumentError):
            proc.madvise(0x700000000000, 4096, MADV_DONTNEED)


class TestKhugepaged:
    def test_promotion_preserves_data(self, machine):
        p, addr = thp_ready_process(machine)
        p.write(addr + 3 * MIB + 123, b"precious bytes")
        promoted = machine.run_khugepaged(p)
        assert promoted == 4  # 8 MiB fully populated
        assert machine.stats.thp_collapses == 4
        assert p.read(addr + 3 * MIB + 123, 14) == b"precious bytes"
        # The PMD entries are now huge.
        pmd_table, index = p.mm.walk_to_pmd(addr)
        assert is_huge(pmd_table.entries[index])

    def test_promotion_requires_advice_under_madvise_policy(self, machine):
        p = machine.spawn_process("no-advice")
        addr = p.mmap(4 * MIB)
        p.touch_range(addr, 4 * MIB, write=True)
        assert machine.run_khugepaged(p) == 0

    def test_always_policy_needs_no_advice(self, machine):
        p = machine.spawn_process("always")
        addr = p.mmap(4 * MIB)
        p.touch_range(addr, 4 * MIB, write=True)
        assert machine.run_khugepaged(p, policy="always") == 2

    def test_partial_regions_not_promoted(self, machine):
        p = machine.spawn_process("sparse")
        addr = p.mmap(4 * MIB)
        p.write(addr, b"only one page present")
        p.madvise(addr, 4 * MIB, MADV_HUGEPAGE)
        assert machine.run_khugepaged(p) == 0

    def test_shared_tables_never_promoted(self, machine):
        """Collapse would edit entries other processes rely on."""
        p, addr = thp_ready_process(machine)
        child = p.odfork()
        assert machine.run_khugepaged(p) == 0
        child.exit()
        p.wait()

    def test_shared_mappings_never_promoted(self, machine):
        """THP only ever maps private anonymous memory, which is why the
        huge-PMD fault can reuse a sole-owned page without a VMA check."""
        p = machine.spawn_process("shm")
        addr = p.mmap_shared(4 * MIB)
        p.touch_range(addr, 4 * MIB, write=True)
        p.madvise(addr, 4 * MIB, MADV_HUGEPAGE)
        assert machine.run_khugepaged(p, policy="always") == 0

    def test_cow_shared_pages_not_promoted(self, machine):
        p, addr = thp_ready_process(machine)
        child = p.fork()  # pages now COW-shared, tables dedicated
        assert machine.run_khugepaged(p) == 0
        child.exit()
        p.wait()

    def test_promotion_makes_fork_fast(self, machine):
        """§2.3: huge pages cut fork cost ~50x (fewer entries to copy)."""
        p, addr = thp_ready_process(machine, size=16 * MIB)
        c = p.fork()
        before_ns = p.last_fork_ns
        c.exit(); p.wait()
        machine.run_khugepaged(p)
        c = p.fork()
        after_ns = p.last_fork_ns
        c.exit(); p.wait()
        assert after_ns < before_ns / 2

    def test_promotion_charges_pause_time(self, machine):
        """The §2.3 complaint: promotion is a real background pause."""
        p, addr = thp_ready_process(machine)
        t0 = machine.now_ns
        machine.run_khugepaged(p)
        pause = machine.now_ns - t0
        assert pause > 4 * 150_000  # >= a 2 MiB copy per promoted region

    def test_max_promotions_cap(self, machine):
        p, addr = thp_ready_process(machine)
        assert machine.run_khugepaged(p, max_promotions=2) == 2

    def test_bad_policy_refused_on_every_call(self, machine):
        """An unknown policy is the caller's error, before and after the
        daemon exists, and never replaces the daemon's policy."""
        p, addr = thp_ready_process(machine)
        with pytest.raises(InvalidArgumentError):
            machine.run_khugepaged(p, policy="bogus")
        assert machine.run_khugepaged(p, policy="never") == 0
        with pytest.raises(InvalidArgumentError):
            machine.run_khugepaged(p, policy="bogus")
        assert machine.kernel.khugepaged().policy == "never"
        assert machine.run_khugepaged(p) == 0
        assert machine.run_khugepaged(p, policy="madvise") == 4


class TestTHPLifecycle:
    def test_cow_after_promotion(self, machine):
        p, addr = thp_ready_process(machine, size=2 * MIB)
        p.write(addr, b"origin")
        machine.run_khugepaged(p)
        child = p.fork()
        child.write(addr, b"child!")
        assert p.read(addr, 6) == b"origin"
        assert child.read(addr, 6) == b"child!"
        assert machine.stats.huge_cow_faults >= 1
        child.exit(); p.wait()

    def test_reuse_after_child_exit(self, machine):
        """Once the fork child is gone the parent owns the 2 MiB page
        again: its write flips the PMD entry writable in place."""
        p, addr = thp_ready_process(machine, size=2 * MIB)
        assert machine.run_khugepaged(p) == 1
        child = p.fork()
        child.exit(); p.wait()
        reuse = machine.stats.cow_reuse
        huge_cow = machine.stats.huge_cow_faults
        p.write(addr, b"reused")
        assert p.read(addr, 6) == b"reused"
        assert machine.stats.cow_reuse == reuse + 1
        assert machine.stats.huge_cow_faults == huge_cow

    def test_partial_unmap_splits(self, machine):
        p, addr = thp_ready_process(machine, size=2 * MIB)
        p.write(addr + 1 * MIB, b"kept half")
        machine.run_khugepaged(p)
        p.munmap(addr, 1 * MIB)
        assert machine.stats.thp_splits == 1
        assert p.read(addr + 1 * MIB, 9) == b"kept half"
        with pytest.raises(SegmentationFault):
            p.read(addr, 1)

    def test_partial_mprotect_splits(self, machine):
        p, addr = thp_ready_process(machine, size=2 * MIB)
        p.write(addr + 1 * MIB, b"writable half")
        machine.run_khugepaged(p)
        p.mprotect(addr, 1 * MIB, PROT_READ)
        assert machine.stats.thp_splits == 1
        with pytest.raises(SegmentationFault):
            p.write(addr, b"x")
        p.write(addr + 1 * MIB, b"still writable")

    def test_mremap_move_splits_collapsed_slots(self, machine):
        """A THP region that must move (growth blocked by a neighbour) is
        split back to 4 KiB entries, which move like any others."""
        p = machine.spawn_process("thp")
        addr = p.mmap(4 * MIB)
        p.madvise(addr, 4 * MIB, MADV_HUGEPAGE)
        p.touch_range(addr, 4 * MIB, write=True)
        p.write(addr + 3 * MIB + 5, b"moved marker")
        assert machine.run_khugepaged(p) == 2
        p.mmap(2 * MIB)   # lands right after: growing in place is blocked
        splits = machine.stats.thp_splits
        new = p.mremap(addr, 4 * MIB, 8 * MIB)
        assert new != addr
        assert p.read(new + 3 * MIB + 5, 12) == b"moved marker"
        assert machine.stats.thp_splits == splits + 2
        audit_machine(machine)
        child = p.fork()
        assert child.read(new + 3 * MIB + 5, 12) == b"moved marker"
        child.exit()
        p.exit()
        machine.init_process.wait()
        audit_machine(machine)
        machine.check_frame_invariants()

    def test_bulk_access_through_promoted_region(self, machine):
        p, addr = thp_ready_process(machine, size=4 * MIB)
        machine.run_khugepaged(p)
        events = p.touch_range(addr, 4 * MIB, write=True)
        assert events["huge_cow"] == 0  # exclusive: no copies needed
        child = p.odfork()
        events = p.touch_range(addr, 4 * MIB, write=True)
        assert events["huge_cow"] == 2
        child.exit(); p.wait()

    def test_exit_with_promoted_regions(self, machine):
        machine.init_process
        baseline = machine.live_data_frames()
        p, addr = thp_ready_process(machine)
        machine.run_khugepaged(p)
        p.exit()
        machine.init_process.wait()
        assert machine.live_data_frames() == baseline
        machine.check_frame_invariants()
