"""On-demand-fork: table sharing, deferred copies, the §3 protocol."""

import pytest

from repro import MIB
from repro.paging import entry_pfn, is_present, is_writable, table_index
from repro.paging.table import LEVEL_PMD
from conftest import make_filled_region


def leaf_info(machine, process, addr):
    """(pmd_table, index, leaf_table, share count) for an address."""
    pmd_table, index = process.mm.walk_to_pmd(addr)
    leaf_pfn = int(entry_pfn(pmd_table.entries[index]))
    leaf = machine.kernel.resolve_table(leaf_pfn)
    return pmd_table, index, leaf, len(leaf.sharers)


class TestSharing:
    def test_tables_shared_not_copied(self, proc, machine):
        addr, _ = make_filled_region(proc)
        tables_before = machine.kernel.live_tables
        child = proc.odfork()
        # Only upper levels created for the child: a PGD + PUD + PMD.
        assert machine.kernel.live_tables - tables_before <= 4
        # Parent and child PMD entries point at the same leaf frame.
        p_pmd, p_idx, p_leaf, p_rc = leaf_info(machine, proc, addr)
        c_pmd, c_idx, c_leaf, _ = leaf_info(machine, child, addr)
        assert p_leaf is c_leaf
        assert p_rc == 2

    def test_pmd_write_protected_both_sides(self, proc, machine):
        addr, _ = make_filled_region(proc)
        child = proc.odfork()
        p_pmd, p_idx, _, _ = leaf_info(machine, proc, addr)
        c_pmd, c_idx, _, _ = leaf_info(machine, child, addr)
        assert not is_writable(p_pmd.entries[p_idx])
        assert not is_writable(c_pmd.entries[c_idx])

    def test_leaf_entries_untouched(self, proc, machine):
        """The point of the design: no per-PTE work at fork time."""
        addr, _ = make_filled_region(proc)
        _, _, leaf, _ = leaf_info(machine, proc, addr)
        entries_before = leaf.entries.copy()
        proc.odfork()
        assert (leaf.entries == entries_before).all()

    def test_data_page_refcounts_untouched(self, proc, machine):
        """§3.6: odfork defers page refcounting to the table refcount."""
        addr = proc.mmap(64 * 1024)
        proc.write(addr, b"x")
        leaf = proc.mm.get_pte_table(addr)
        pfn = leaf.child_pfn((addr >> 12) & 511)
        proc.odfork()
        assert machine.pages.get_ref(pfn) == 1

    def test_reads_are_fast_no_faults(self, proc, machine):
        """Figure 6 "fast read": reads through shared tables never fault."""
        addr, _ = make_filled_region(proc)
        child = proc.odfork()
        faults_before = machine.stats.page_faults
        assert child.read(addr, 64) is not None
        assert proc.read(addr + 8192, 64) is not None
        assert machine.stats.page_faults == faults_before

    def test_unlimited_sharers(self, proc, machine):
        addr, _ = make_filled_region(proc)
        children = [proc.odfork() for _ in range(5)]
        _, _, _, rc = leaf_info(machine, proc, addr)
        assert rc == 6
        for child in children:
            assert child.read(addr, 3) == proc.read(addr, 3)


class TestDeferredCopy:
    def test_first_write_copies_table_once(self, proc, machine):
        addr, _ = make_filled_region(proc, size=4 * MIB)
        child = proc.odfork()
        assert machine.stats.table_cow_copies == 0
        child.write(addr, b"w1")
        assert machine.stats.table_cow_copies == 1
        # Subsequent writes within the same 2 MiB region: no more copies.
        child.write(addr + 4096, b"w2")
        child.write(addr + 100 * 4096, b"w3")
        assert machine.stats.table_cow_copies == 1
        # A different 2 MiB region copies its own table.
        child.write(addr + 2 * MIB, b"w4")
        assert machine.stats.table_cow_copies == 2

    def test_copy_decrements_shared_refcount(self, proc, machine):
        addr, _ = make_filled_region(proc)
        _, _, leaf, _ = leaf_info(machine, proc, addr)
        child = proc.odfork()
        assert len(leaf.sharers) == 2
        child.write(addr, b"x")
        assert len(leaf.sharers) == 1
        # The child now has its own dedicated table.
        _, _, child_leaf, child_rc = leaf_info(machine, proc.machine and child, addr)
        assert child_leaf is not leaf
        assert child_rc == 1

    def test_sole_owner_flip(self, proc, machine):
        """§3.4: when the refcount returns to one, the survivor flips its
        PMD write bit instead of copying."""
        addr, _ = make_filled_region(proc)
        child = proc.odfork()
        child.write(addr, b"x")          # child copies the table
        copies_before = machine.stats.table_cow_copies
        proc.write(addr, b"y")           # parent is sole owner now
        assert machine.stats.table_cow_copies == copies_before
        assert machine.stats.table_unshares >= 1
        p_pmd, p_idx, _, rc = leaf_info(machine, proc, addr)
        assert rc == 1
        assert is_writable(p_pmd.entries[p_idx])

    def test_write_isolation_full(self, proc):
        addr, probes = make_filled_region(proc)
        child = proc.odfork()
        child.write(addr + probes[1], b"CHILD")
        proc.write(addr + probes[2], b"PARNT")
        assert proc.read(addr + probes[1], 5) != b"CHILD"
        assert child.read(addr + probes[2], 5) != b"PARNT"
        # Unwritten regions still shared and equal.
        assert proc.read(addr + probes[3], 3) == child.read(addr + probes[3], 3)

    def test_read_fault_on_absent_entry_copies_table(self, proc, machine):
        """Installing a PTE is a table write: the kernel must unshare
        first even for a read fault (demand-zero in a shared region)."""
        addr = proc.mmap(4 * MIB)
        proc.write(addr, b"only first page present")
        child = proc.odfork()
        assert machine.stats.table_cow_copies == 0
        child.read(addr + 8192, 1)  # absent page, read access
        assert machine.stats.table_cow_copies == 1

    def test_accessed_bits_preserved_on_copy(self, proc, machine):
        """§3.2: the copy duplicates accessed-bit state."""
        from repro.paging import BIT_ACCESSED
        addr, _ = make_filled_region(proc)
        _, _, leaf, _ = leaf_info(machine, proc, addr)
        index = (addr >> 12) & 511
        assert leaf.entries[index] & BIT_ACCESSED
        child = proc.odfork()
        child.write(addr + 4096, b"trigger copy")
        _, _, child_leaf, _ = leaf_info(machine, child, addr)
        assert child_leaf.entries[index] & BIT_ACCESSED


class TestOdforkCost:
    def test_invocation_near_constant_vs_fork(self, big_machine):
        p = big_machine.spawn_process("odf-cost")
        addr = p.mmap(1024 * MIB)
        p.touch_range(addr, 1024 * MIB, write=True)
        child = p.odfork()
        odf_ns = p.last_fork_ns
        child.exit(); p.wait()
        child = p.fork()
        fork_ns = p.last_fork_ns
        assert fork_ns / odf_ns > 30, "odfork should be >30x faster at 1 GB"

    def test_stats_track_shared_tables(self, proc, machine):
        addr, _ = make_filled_region(proc, size=8 * MIB)
        proc.odfork()
        assert machine.stats.tables_shared == 4  # 8 MiB = 4 leaf tables
