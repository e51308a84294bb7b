"""2 MiB huge-page mappings: demand fill, COW, fork interactions."""

import pytest

from repro import MIB
from repro.errors import InvalidArgumentError
from repro.mem import HUGE_PAGE_SIZE
from repro.paging import is_huge, is_writable


class TestHugeMappings:
    def test_basic_huge_mapping(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(4 * MIB)
        assert addr % HUGE_PAGE_SIZE == 0
        p.write(addr + 12345, b"in a huge page")
        assert p.read(addr + 12345, 14) == b"in a huge page"

    def test_pmd_entry_is_huge(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"x")
        pmd_table, index = p.mm.walk_to_pmd(addr)
        assert is_huge(pmd_table.entries[index])

    def test_rss_counts_full_huge_page(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(4 * MIB)
        p.write(addr, b"x")  # one touch faults the whole 2 MiB
        assert p.rss_bytes == HUGE_PAGE_SIZE

    def test_huge_cow_after_fork(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"parent data")
        child = p.fork()
        assert child.read(addr, 11) == b"parent data"
        child.write(addr, b"child data!")
        assert p.read(addr, 11) == b"parent data"
        assert child.read(addr, 11) == b"child data!"

    def test_huge_cow_charges_bulk_copy(self, machine):
        """Table 1: a huge COW fault copies 2 MiB — far slower than 4 KiB."""
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"x")
        child = p.fork()
        watch = machine.stopwatch()
        child.write(addr, b"y")
        huge_fault_ns = watch.elapsed_ns
        assert huge_fault_ns > 150_000  # ~198 us in the paper

    def test_huge_reuse_when_exclusive(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"v1")
        child = p.fork()
        child.exit()
        p.wait()
        reuse_before = machine.stats.cow_reuse
        p.write(addr, b"v2")
        assert machine.stats.cow_reuse == reuse_before + 1

    def test_huge_unmap_granularity(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(4 * MIB)
        with pytest.raises(InvalidArgumentError):
            p.munmap(addr, 1 * MIB)
        p.munmap(addr, 2 * MIB)  # whole huge page: fine

    def test_partial_huge_dontneed_refused_before_zapping(self, machine):
        """A DONTNEED range ending inside a hugetlb page is refused before
        any slot is zapped: the first slot keeps its data, and no CPU
        keeps a translation over a freed frame."""
        from repro import MADV_DONTNEED
        from repro.verify.audit import audit_machine
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(4 * MIB)
        p.touch_range(addr, 4 * MIB, write=True)
        p.write(addr, b"keep")
        with pytest.raises(InvalidArgumentError):
            p.madvise(addr, 3 * MIB, MADV_DONTNEED)
        assert p.rss_bytes == 4 * MIB
        audit_machine(machine)
        assert p.read(addr, 4) == b"keep"
        p.madvise(addr, 2 * MIB, MADV_DONTNEED)  # whole huge page: fine
        assert p.rss_bytes == 2 * MIB
        audit_machine(machine)

    def test_huge_unmap_frees_compound(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"x")
        live = machine.live_data_frames()
        p.munmap(addr, 2 * MIB)
        assert machine.live_data_frames() <= live - 1  # head carries the span

    def test_odfork_handles_huge_entries_eagerly(self, machine):
        """The paper's implementation supports 4 KiB pages; huge entries
        take the classic eager-COW path under odfork by default."""
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(2 * MIB)
        p.write(addr, b"hp data")
        child = p.odfork()
        head_ref_holder = machine.pages
        assert child.read(addr, 7) == b"hp data"
        child.write(addr, b"hp edit")
        assert p.read(addr, 7) == b"hp data"

    def test_mixed_huge_and_regular(self, machine):
        p = machine.spawn_process("mixed")
        small = p.mmap(1 * MIB)
        huge = p.mmap_huge(2 * MIB)
        p.write(small, b"small")
        p.write(huge, b"huge!")
        child = p.odfork()
        assert child.read(small, 5) == b"small"
        assert child.read(huge, 5) == b"huge!"
        child.write(small, b"csmal")
        child.write(huge, b"chuge")
        assert p.read(small, 5) == b"small"
        assert p.read(huge, 5) == b"huge!"

    def test_populate_huge(self, machine):
        p = machine.spawn_process("huge")
        addr = p.mmap_huge(8 * MIB, populate=True)
        assert p.rss_bytes == 8 * MIB
        assert machine.stats.huge_faults == 4
