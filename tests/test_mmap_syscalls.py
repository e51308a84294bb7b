"""mmap / munmap / mprotect syscall semantics."""

import pytest

from repro import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_POPULATE,
    MAP_PRIVATE,
    MIB,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
)
from repro.errors import InvalidArgumentError
from repro.paging import VA_LIMIT

RW = PROT_READ | PROT_WRITE


class TestMmap:
    def test_basic_mapping(self, proc):
        addr = proc.mmap(1 * MIB)
        assert addr % 4096 == 0
        proc.write(addr, b"data")
        assert proc.read(addr, 4) == b"data"

    def test_length_rounded_to_pages(self, proc):
        addr = proc.mmap(100)
        proc.write(addr + 4000, b"end of page ok")
        with pytest.raises(SegmentationFault):
            proc.read(addr + 4096, 1)

    def test_zero_length_rejected(self, proc):
        with pytest.raises(InvalidArgumentError):
            proc.mmap(0)

    def test_mappings_do_not_overlap(self, proc):
        a = proc.mmap(1 * MIB)
        b = proc.mmap(1 * MIB)
        assert b >= a + 1 * MIB or a >= b + 1 * MIB

    def test_map_fixed_replaces(self, proc):
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"old contents")
        new_addr = proc.mmap(1 * MIB, addr=addr,
                             flags=MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        assert new_addr == addr
        # A fresh mapping reads zero.
        assert proc.read(addr, 12) == bytes(12)

    @pytest.mark.parametrize("offset", [0, -4096, 1 << 47])
    def test_map_fixed_beyond_the_user_half_refused(self, proc, offset):
        """A fixed mapping must end inside the user half ``[0, VA_LIMIT)``,
        the bound Linux's ``TASK_SIZE`` sets."""
        with pytest.raises(InvalidArgumentError):
            proc.mmap(8192, addr=VA_LIMIT + offset,
                      flags=MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        assert not proc.mm.vmas.overlapping(0, 1 << 63)
        top = proc.mmap(8192, addr=VA_LIMIT - 8192,
                        flags=MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        proc.write(top, b"top")
        assert proc.rss_bytes == 4096
        proc.exit()

    def test_map_populate_prefaults(self, proc, machine):
        before = machine.stats.demand_zero_faults
        proc.mmap(1 * MIB, flags=MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE)
        assert machine.stats.demand_zero_faults - before == 256

    def test_fresh_anonymous_memory_reads_zero(self, proc):
        addr = proc.mmap(64 * 1024)
        assert proc.read(addr + 12345, 16) == bytes(16)

    def test_unmapped_access_segfaults(self, proc):
        addr = proc.mmap(1 * MIB)
        with pytest.raises(SegmentationFault):
            proc.read(addr - 4096, 1)
        with pytest.raises(SegmentationFault):
            proc.write(addr + 2 * MIB, b"x")


class TestMunmap:
    def test_unmap_whole(self, proc):
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"x")
        proc.munmap(addr, 1 * MIB)
        with pytest.raises(SegmentationFault):
            proc.read(addr, 1)

    def test_unmap_releases_frames(self, proc, machine):
        addr = proc.mmap(1 * MIB)
        proc.touch_range(addr, 1 * MIB, write=True)
        live_before = machine.live_data_frames()
        proc.munmap(addr, 1 * MIB)
        assert machine.live_data_frames() < live_before - 200

    def test_partial_unmap_splits(self, proc):
        addr = proc.mmap(1 * MIB)
        proc.write(addr, b"head")
        proc.write(addr + 1 * MIB - 4096, b"tail")
        proc.munmap(addr + 256 * 1024, 512 * 1024)
        assert proc.read(addr, 4) == b"head"
        assert proc.read(addr + 1 * MIB - 4096, 4) == b"tail"
        with pytest.raises(SegmentationFault):
            proc.read(addr + 300 * 1024, 1)

    def test_unmap_spanning_multiple_vmas(self, proc):
        a = proc.mmap(1 * MIB)
        b = proc.mmap(1 * MIB)
        low, high = min(a, b), max(a, b)
        if high == low + 1 * MIB:  # adjacent: unmap across both
            proc.munmap(low + 512 * 1024, 1 * MIB)
            with pytest.raises(SegmentationFault):
                proc.read(low + 600 * 1024, 1)
            proc.read(low, 1)
            proc.read(high + 1 * MIB - 4096, 1)

    def test_unmap_unmapped_is_noop(self, proc):
        proc.munmap(0x700000000000, 4096)

    def test_unmap_misaligned_rejected(self, proc):
        addr = proc.mmap(1 * MIB)
        with pytest.raises(InvalidArgumentError):
            proc.munmap(addr + 1, 4096)


class TestMprotect:
    def test_remove_write_blocks_stores(self, proc):
        addr = proc.mmap(64 * 1024)
        proc.write(addr, b"before")
        proc.mprotect(addr, 64 * 1024, PROT_READ)
        assert proc.read(addr, 6) == b"before"
        with pytest.raises(SegmentationFault):
            proc.write(addr, b"after")

    def test_restore_write(self, proc):
        addr = proc.mmap(64 * 1024)
        proc.write(addr, b"v1")
        proc.mprotect(addr, 64 * 1024, PROT_READ)
        proc.mprotect(addr, 64 * 1024, RW)
        proc.write(addr, b"v2")
        assert proc.read(addr, 2) == b"v2"

    def test_partial_mprotect_splits_vma(self, proc):
        addr = proc.mmap(64 * 1024)
        proc.mprotect(addr + 16 * 1024, 16 * 1024, PROT_READ)
        proc.write(addr, b"ok")                      # head still writable
        proc.write(addr + 48 * 1024, b"ok")          # tail still writable
        with pytest.raises(SegmentationFault):
            proc.write(addr + 20 * 1024, b"no")

    def test_prot_none_blocks_reads(self, proc):
        addr = proc.mmap(64 * 1024)
        proc.mprotect(addr, 64 * 1024, 0)
        with pytest.raises(SegmentationFault):
            proc.read(addr, 1)

    def test_mprotect_unmapped_rejected(self, proc):
        with pytest.raises(InvalidArgumentError):
            proc.mprotect(0x700000000000, 4096, PROT_READ)
