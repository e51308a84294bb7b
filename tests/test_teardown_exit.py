"""Teardown: munmap with shared tables, exit, leak detection."""

import pytest

from repro import MIB, Machine, SegmentationFault
from repro.errors import KernelBug, ProcessError
from repro.kernel.tableops import put_pte_table
from conftest import make_filled_region


class TestSharedTableUnmap:
    def test_whole_slot_unmap_preserves_sharers(self, proc, machine):
        """§3.3 fast path: dropping a whole 2 MiB slot only decrements the
        table refcount; other sharers keep translating."""
        addr, _ = make_filled_region(proc, size=4 * MIB)
        proc.write(addr + 2 * MIB, b"second region")
        child = proc.odfork()
        copies_before = machine.stats.table_cow_copies
        child.munmap(addr, 2 * MIB)  # whole slots, shared tables
        assert machine.stats.table_cow_copies == copies_before
        # Parent still reads its data through the (previously shared) table.
        assert proc.read(addr + 2 * MIB, 13) == b"second region"
        assert proc.read(addr, 3) is not None
        with pytest.raises(SegmentationFault):
            child.read(addr, 1)
        assert child.read(addr + 2 * MIB, 13) == b"second region"

    def test_partial_unmap_copies_table_first(self, proc, machine):
        """§3.3 slow path: a partial unmap under a shared table must COW
        the table so other sharers keep their entries."""
        addr, _ = make_filled_region(proc, size=2 * MIB)
        marker = addr + 1 * MIB
        proc.write(marker, b"must survive")
        child = proc.odfork()
        copies_before = machine.stats.table_cow_copies
        child.munmap(addr, 64 * 1024)  # partial slot
        assert machine.stats.table_cow_copies == copies_before + 1
        # Parent unaffected — including the range the child unmapped.
        assert proc.read(addr, 3) is not None
        assert proc.read(marker, 12) == b"must survive"
        # Child keeps the rest of the slot.
        assert child.read(marker, 12) == b"must survive"
        with pytest.raises(SegmentationFault):
            child.read(addr, 1)

    def test_unmap_by_parent_preserves_child(self, proc, machine):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"inherited")
        child = proc.odfork()
        proc.munmap(addr, 2 * MIB)
        assert child.read(addr, 9) == b"inherited"
        with pytest.raises(SegmentationFault):
            proc.read(addr, 1)

    def test_pages_freed_only_when_last_table_dies(self, proc, machine):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        live_full = machine.live_data_frames()
        child = proc.odfork()
        proc.munmap(addr, 2 * MIB)
        # Pages survive: the shared table still references them (§3.6).
        assert machine.live_data_frames() >= live_full - 4
        child.munmap(addr, 2 * MIB)
        # Last reference gone: the data pages are freed.
        assert machine.live_data_frames() < live_full - 200


class TestTablePut:
    def test_last_put_of_a_populated_table_is_a_bug(self, proc, machine):
        """Every caller empties a table before its last put, so the
        destructor has nothing to release: a populated dying table is a
        kernel bug, not a silent release of its pages."""
        addr, _ = make_filled_region(proc, size=2 * MIB)
        leaf = proc.mm.get_pte_table(addr)
        with pytest.raises(KernelBug, match=f"leaf table {leaf.pfn} with "
                                            f"live entries"):
            put_pte_table(machine.kernel, proc.mm, leaf)


class TestSharerList:
    """A leaf table's sharer list lives on the table and dies with it."""

    @pytest.mark.parametrize("fastpath,message", [
        (True, r"sharer of tables \[{pfn}\]"),
        (False, r"sharer of table {pfn}$"),
    ], ids=["fastpath", "per-event"])
    def test_exit_through_a_stray_sharer_is_a_bug(self, fastpath, message):
        """Both exit paths name a dying dedicated table whose sharer list
        does not hold the exiting mm (the fast exit in its batch, the
        per-event exit in its table put)."""
        machine = Machine(phys_mb=256, fastpath=fastpath)
        proc = machine.spawn_process("p")
        other = machine.spawn_process("other")
        addr, _ = make_filled_region(proc, size=2 * MIB)
        leaf = proc.mm.get_pte_table(addr)
        leaf.sharers[:] = [other.mm]
        with pytest.raises(KernelBug, match=message.format(pfn=leaf.pfn)):
            proc.exit()

    @pytest.mark.parametrize("release", ["munmap", "exit"])
    def test_a_freed_leaf_table_has_no_sharer_list(self, proc, release):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        leaf = proc.mm.get_pte_table(addr)
        assert leaf.sharers == [proc.mm]
        if release == "munmap":
            proc.munmap(addr, 2 * MIB)
        else:
            proc.exit()
        assert leaf.sharers is None


class TestExit:
    def test_exit_releases_everything(self, machine):
        machine.init_process  # materialise init's PGD before the baseline
        baseline = machine.live_data_frames()
        p = machine.spawn_process("short-lived")
        addr, _ = make_filled_region(p, size=4 * MIB)
        p.exit()
        machine.init_process.wait()
        assert machine.live_data_frames() == baseline
        machine.check_frame_invariants()

    def test_exit_fork_lineage_no_leaks(self, machine):
        machine.init_process  # materialise init's PGD before the baseline
        baseline = machine.live_data_frames()
        p = machine.spawn_process("lineage")
        addr, _ = make_filled_region(p, size=4 * MIB)
        c1 = p.fork()
        c2 = p.odfork()
        c3 = c2.odfork()
        c3.write(addr, b"deep write")
        c2.write(addr + 2 * MIB, b"mid write")
        for child in (c3, c2, c1):
            child.exit()
        c2_gone = p.wait()
        p.wait()
        p.wait()
        p.exit()
        machine.init_process.wait()
        assert machine.live_data_frames() == baseline
        assert machine.kernel.live_tables == 1  # init's PGD
        machine.check_frame_invariants()

    def test_parent_exits_before_child(self, machine):
        """Shared tables survive the creating process (§3.1: 'may survive
        beyond the creating process lifetime')."""
        p = machine.spawn_process("parent-first")
        addr, _ = make_filled_region(p, size=2 * MIB)
        p.write(addr, b"legacy data")
        child = p.odfork()
        p.exit()
        machine.init_process.wait()
        assert child.read(addr, 11) == b"legacy data"
        child.write(addr, b"still works")
        assert child.read(addr, 11) == b"still works"
        child.exit()
        machine.init_process.wait()
        machine.check_frame_invariants()

    def test_dead_process_rejects_syscalls(self, proc):
        proc.exit()
        with pytest.raises(ProcessError):
            proc.mmap(4096)
        with pytest.raises(ProcessError):
            proc.read(0, 1)

    def test_double_exit_rejected(self, proc):
        proc.exit()
        with pytest.raises(ProcessError):
            proc.exit()

    def test_wait_semantics(self, proc):
        child = proc.fork()
        assert proc.wait() is None  # child still running
        child.exit(code=42)
        pid, code = proc.wait()
        assert pid == child.pid
        assert code == 42
        with pytest.raises(ProcessError):
            proc.wait(pid=99999)

    def test_orphans_reparented_to_init(self, machine):
        p = machine.spawn_process("dies-first")
        child = p.fork()
        p.exit()
        machine.init_process.wait()
        assert child.task.parent is machine.init_process.task
        child.exit()
        assert machine.init_process.wait() is not None
