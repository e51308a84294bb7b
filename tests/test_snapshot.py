"""In-place snapshot/restore (the §6.1 fork-less primitive)."""

import pytest

from repro import MIB, Machine
from repro.errors import InvalidArgumentError
from conftest import make_filled_region
from repro.verify.audit import audit_machine


@pytest.fixture
def snapped(machine):
    p = machine.spawn_process("snap")
    addr, _ = make_filled_region(p, size=4 * MIB)
    p.write(addr, b"baseline")
    snapshot = p.snapshot()
    return p, addr, snapshot


class TestRoundTrips:
    def test_restore_rolls_back_writes(self, snapped):
        p, addr, snapshot = snapped
        p.write(addr, b"mutated!")
        p.write(addr + 1 * MIB, b"more damage")
        snapshot.restore()
        assert p.read(addr, 8) == b"baseline"
        assert p.read(addr + 1 * MIB, 11) == bytes(11)

    def test_restore_is_repeatable(self, snapped):
        p, addr, snapshot = snapped
        for round_number in range(6):
            p.write(addr, f"round {round_number}".encode())
            snapshot.restore()
            assert p.read(addr, 8) == b"baseline"
        assert snapshot.restores == 6

    def test_unwritten_state_costs_nothing(self, snapped, machine):
        p, addr, snapshot = snapped
        assert snapshot.restore() == 0  # nothing changed: no entries moved

    def test_new_pages_are_rolled_back(self, snapped, machine):
        p, addr, snapshot = snapped
        live_before = machine.live_data_frames()
        p.write(addr + 3 * MIB + 8192, b"fresh page")
        snapshot.restore()
        assert machine.live_data_frames() == live_before
        assert p.read(addr + 3 * MIB + 8192, 10) == bytes(10)

    def test_writes_after_snapshot_cow_not_corrupt(self, snapped, machine):
        p, addr, snapshot = snapped
        before = machine.stats.cow_faults
        p.write(addr, b"isolated")
        assert machine.stats.cow_faults > before  # saved page untouched
        assert p.read(addr, 8) == b"isolated"


class TestLifecycle:
    def test_discard_releases_references(self, machine):
        machine.init_process
        baseline = machine.live_data_frames()
        p = machine.spawn_process("snap")
        addr, _ = make_filled_region(p, size=2 * MIB)
        snapshot = p.snapshot()
        p.write(addr, b"x")
        snapshot.discard()
        p.exit()
        machine.init_process.wait()
        assert machine.live_data_frames() == baseline
        machine.check_frame_invariants()

    def test_discard_after_exit_frees_everything(self, machine):
        machine.init_process
        baseline = machine.live_data_frames()
        p = machine.spawn_process("snap")
        addr, _ = make_filled_region(p, size=2 * MIB)
        snapshot = p.snapshot()
        p.exit()
        machine.init_process.wait()
        assert machine.live_data_frames() > baseline  # snapshot holds refs
        snapshot.discard()
        assert machine.live_data_frames() == baseline

    def test_restore_after_discard_rejected(self, snapped):
        p, addr, snapshot = snapped
        snapshot.discard()
        with pytest.raises(InvalidArgumentError):
            snapshot.restore()

    def test_double_discard_is_noop(self, snapped):
        p, addr, snapshot = snapped
        snapshot.discard()
        snapshot.discard()

    def test_stats_counted(self, snapped, machine):
        p, addr, snapshot = snapped
        snapshot.restore()
        assert machine.stats.snapshots_created == 1
        assert machine.stats.snapshot_restores == 1


class TestRestrictions:
    def test_huge_mappings_rejected(self, machine):
        p = machine.spawn_process("snap-huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"x")
        with pytest.raises(InvalidArgumentError):
            p.snapshot()

    def test_refused_snapshot_leaves_ptes_and_tlb_alone(self, machine):
        """A huge slot above written 4 KiB pages: the refusal must not
        write-protect the pages below it behind the TLB's back."""
        p = machine.spawn_process("snap-refused")
        buf = p.mmap(3 * 4096)
        p.touch_range(buf, 3 * 4096, write=False)
        p.write(buf + 2 * 4096, b"x")            # cached writable
        huge = p.mmap_huge(2 * MIB)
        p.touch_range(huge, 2 * MIB, write=True)
        before = [leaf.entries.copy() for _, _, leaf in p.mm.leaf_tables()]
        with pytest.raises(InvalidArgumentError):
            p.snapshot()
        after = [leaf.entries for _, _, leaf in p.mm.leaf_tables()]
        assert len(after) == len(before)
        for old, new in zip(before, after):
            assert (old == new).all()
        assert machine.kernel.live_snapshots == []
        audit_machine(machine)

    def test_shared_mm_rejected(self, machine):
        p = machine.spawn_process("snap-shared")
        addr, _ = make_filled_region(p, size=1 * MIB)
        thread = p.clone_vm()
        with pytest.raises(InvalidArgumentError):
            p.snapshot()
        thread.exit()
        p.wait()

    def test_snapshot_unshares_odfork_tables(self, machine):
        """Creating a snapshot over shared tables must copy them first."""
        p = machine.spawn_process("snap-odf")
        addr, _ = make_filled_region(p, size=2 * MIB)
        p.write(addr, b"shared base")
        child = p.odfork()
        snapshot = p.snapshot()
        assert machine.stats.table_cow_copies >= 1
        p.write(addr, b"parent edit")
        snapshot.restore()
        assert p.read(addr, 11) == b"shared base"
        assert child.read(addr, 11) == b"shared base"
        child.exit()
        p.wait()
        audit_machine(machine)


    def test_restore_into_a_rebuilt_slot_keeps_rmap_homes(self):
        """Unsupported, yet sound: a slot's table freed by a whole-slot
        DONTNEED and rebuilt by a fault takes the saved table's rmap
        family at restore, so the restored PTEs of pages a classic-fork
        child still maps sit at their homes, and reclaim finds both."""
        from repro import MADV_DONTNEED
        machine = Machine(phys_mb=64, swap_mb=64)
        p = machine.spawn_process("snap-rebuilt")
        addr = p.mmap(4 * MIB)
        slot = -(-addr // (2 * MIB)) * (2 * MIB)
        p.touch_range(addr, 4 * MIB, write=True)
        p.write(slot, b"saved")
        snapshot = p.snapshot()
        child = p.fork()
        p.madvise(slot, 2 * MIB, MADV_DONTNEED)
        p.touch_range(slot, 2 * MIB, write=True)
        p.write(slot, b"fresh")
        snapshot.restore()
        audit_machine(machine)
        assert p.read(slot, 5) == child.read(slot, 5) == b"saved"
        machine.kernel.reclaim.shrink(256, from_kswapd=False)
        audit_machine(machine)
        assert p.read(slot, 5) == child.read(slot, 5) == b"saved"
        child.exit()
        p.wait()
        snapshot.discard()
        audit_machine(machine)


class TestFuzzResetPattern:
    def test_snapshot_reset_loop_like_fuzzer(self, machine):
        """The Xu et al. use case: N inputs, one process, full resets."""
        p = machine.spawn_process("snap-fuzz")
        addr, _ = make_filled_region(p, size=4 * MIB)
        p.write(addr + 100, b"INITIAL")
        snapshot = p.snapshot()
        for i in range(10):
            # Each 'input' scribbles somewhere different.
            p.write(addr + (i * 137 * 4096) % (4 * MIB - 4096),
                    f"input-{i}".encode())
            snapshot.restore()
        assert p.read(addr + 100, 7) == b"INITIAL"
        audit_machine(machine)
