"""Multi-generation sharing and the both-copies write-protection rule.

DESIGN.md §3 documents the subtle case: when process A copies a shared
table, a later sole owner B must not silently regain write access to pages
that are still COW-shared with A's copy.  These tests pin that protocol
down across deep fork lineages and mixed fork flavours.
"""

import pytest

from repro import MIB
from conftest import make_filled_region


class TestSoleOwnerSafety:
    def test_survivor_cannot_corrupt_copier(self, proc, machine):
        """The DESIGN.md §3 scenario, end to end."""
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"original")
        child = proc.odfork()
        # Child writes elsewhere in the region: copies the table.  The
        # page at `addr` is still physically shared between both.
        child.write(addr + 64 * 1024, b"child's own write")
        assert len(proc.mm.get_pte_table(addr).sharers) == 1
        # Parent (now sole owner of the old table) writes the shared page:
        # this MUST COW, not write in place.
        proc.write(addr, b"parent v2")
        assert child.read(addr, 8) == b"original"
        assert proc.read(addr, 9) == b"parent v2"

    def test_survivor_write_to_own_cowed_page(self, proc, machine):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        child = proc.odfork()
        child.write(addr, b"childpage")     # table copy + page COW in child
        proc.write(addr, b"parentpge")      # sole-owner flip + page reuse
        assert machine.stats.cow_reuse >= 1
        assert child.read(addr, 9) == b"childpage"
        assert proc.read(addr, 9) == b"parentpge"


class TestDeepLineages:
    def test_chain_of_odforks(self, proc):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"gen0")
        processes = [proc]
        for generation in range(1, 5):
            child = processes[-1].odfork()
            processes.append(child)
        # Everyone reads the ancestral data.
        for p in processes:
            assert p.read(addr, 4) == b"gen0"
        # Each generation writes its own value at a distinct offset.
        for i, p in enumerate(processes):
            p.write(addr + 4096 * (i + 1), f"gn{i:02d}".encode())
        for i, p in enumerate(processes):
            assert p.read(addr + 4096 * (i + 1), 4) == f"gn{i:02d}".encode()
            # And nobody sees anyone else's private write.
            other = (i + 1) % len(processes)
            assert p.read(addr + 4096 * (other + 1), 4) in (
                f"gn{other:02d}".encode(), bytes(4)
            )

    def test_mixed_fork_flavours(self, proc, machine):
        """classic fork of a process holding shared tables."""
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"root")
        od_child = proc.odfork()
        # Classic fork from the odfork child: tables are shared, so the
        # classic copy must produce correctly protected child entries.
        classic_grandchild = od_child.fork()
        assert classic_grandchild.read(addr, 4) == b"root"
        classic_grandchild.write(addr, b"gcw!")
        assert od_child.read(addr, 4) == b"root"
        assert proc.read(addr, 4) == b"root"
        od_child.write(addr, b"odcw")
        assert proc.read(addr, 4) == b"root"
        assert classic_grandchild.read(addr, 4) == b"gcw!"

    def test_odfork_of_classic_child(self, proc):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"base")
        classic_child = proc.fork()
        od_grandchild = classic_child.odfork()
        od_grandchild.write(addr, b"leaf")
        assert classic_child.read(addr, 4) == b"base"
        assert proc.read(addr, 4) == b"base"
        assert od_grandchild.read(addr, 4) == b"leaf"

    def test_sibling_isolation(self, proc):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        proc.write(addr, b"parent data")
        siblings = [proc.odfork() for _ in range(3)]
        for i, sibling in enumerate(siblings):
            sibling.write(addr, f"sibling-{i}".encode())
        for i, sibling in enumerate(siblings):
            assert sibling.read(addr, 9) == f"sibling-{i}".encode()
        assert proc.read(addr, 11) == b"parent data"

    def test_refcount_accounting_across_generations(self, proc, machine):
        addr, _ = make_filled_region(proc, size=2 * MIB)
        leaf = proc.mm.get_pte_table(addr)
        a = proc.odfork()
        b = a.odfork()
        c = b.odfork()
        assert len(leaf.sharers) == 4
        b.write(addr, b"x")   # b copies
        assert len(leaf.sharers) == 3
        for p in (c, b, a):
            p.exit()
        b_parent_waits = a  # reap in lineage order
        # c was b's child; reparenting applies after exits.
        machine.check_frame_invariants()
