"""File-backed mappings, the page cache, and the in-memory filesystem."""

import pytest

from repro import (
    BusError,
    MAP_PRIVATE,
    MAP_SHARED,
    MIB,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import InvalidArgumentError
from repro.mem.page import PAGE_SIZE, PG_FILE, PTRS_PER_TABLE
from repro.paging.entries import entry_pfn
from repro.verify.audit import audit_machine

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def file_with_contents(machine):
    f = machine.kernel.fs.create("/data/blob", size=256 * 1024)
    f.set_initial_contents(b"file header", offset=0)
    f.set_initial_contents(b"middle of file", offset=100 * 1024)
    return f


class TestFilesystem:
    def test_create_open_unlink(self, machine):
        fs = machine.kernel.fs
        f = fs.create("/tmp/x", size=100)
        assert fs.open("/tmp/x") is f
        assert fs.exists("/tmp/x")
        fs.unlink("/tmp/x")
        assert not fs.exists("/tmp/x")
        with pytest.raises(InvalidArgumentError):
            fs.open("/tmp/x")

    def test_duplicate_create_rejected(self, machine):
        machine.kernel.fs.create("/dup", 10)
        with pytest.raises(InvalidArgumentError):
            machine.kernel.fs.create("/dup", 10)

    def test_initial_contents_and_truncate(self, machine):
        f = machine.kernel.fs.create("/t", size=0)
        f.set_initial_contents(b"0123456789", offset=4090)  # crosses a page
        assert f.size == 4100
        assert f.initial_page(0)[4090:4096] == b"012345"
        assert f.initial_page(1)[:4] == b"6789"
        f.truncate(4096)
        assert f.initial_page(1) == bytes(4096)


class TestPageCache:
    def test_read_through_cache(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        data = cache.read(file_with_contents, 0, 11)
        assert data == b"file header"
        assert cache.fills >= 1

    def test_cache_fills_once_per_page(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.read(file_with_contents, 0, 10)
        fills = cache.fills
        cache.read(file_with_contents, 100, 10)
        assert cache.fills == fills

    def test_write_through_cache(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.write(file_with_contents, 50, b"patched")
        assert cache.read(file_with_contents, 50, 7) == b"patched"

    def test_drop_file_frees_unmapped_pages(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.read(file_with_contents, 0, 1)
        assert len(cache) >= 1
        cache.drop_file(file_with_contents)
        assert len(cache) == 0


class TestSharedFileMappings:
    def test_mmap_shared_reads_file(self, proc, machine, file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        assert proc.read(addr, 11) == b"file header"
        assert proc.read(addr + 100 * 1024, 14) == b"middle of file"

    def test_shared_write_visible_through_cache(self, proc, machine,
                                                file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        proc.write(addr + 4096, b"mapped write")
        cached = machine.kernel.page_cache.read(file_with_contents, 4096, 12)
        assert cached == b"mapped write"

    def test_shared_mapping_across_fork(self, proc, file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        child = proc.fork()
        child.write(addr, b"child was here")
        assert proc.read(addr, 14) == b"child was here"

    def test_shared_mapping_across_odfork(self, proc, machine,
                                          file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        proc.read(addr, 1)  # populate
        child = proc.odfork()
        # First write faults (PMD protected) but copies only the *table*;
        # the data page is shared, so the parent sees the write.
        child.write(addr, b"still shared")
        assert proc.read(addr, 12) == b"still shared"

    def test_file_offset_mapping(self, proc, file_with_contents):
        addr = proc.mmap_shared(4096, file=file_with_contents,
                                offset=100 * 1024 - (100 * 1024) % 4096)
        page_offset = (100 * 1024) % 4096
        assert proc.read(addr + page_offset, 14) == b"middle of file"

    def test_access_beyond_eof_raises_sigbus(self, proc, machine):
        small = machine.kernel.fs.create("/small", size=4096)
        addr = proc.mmap_shared(64 * 1024, file=small)
        proc.read(addr, 10)  # within the file: fine
        with pytest.raises(BusError):
            proc.read(addr + 8192, 1)


class TestPrivateFileMappings:
    def test_private_cow_from_file(self, proc, machine, file_with_contents):
        addr = proc.mmap(256 * 1024, flags=MAP_PRIVATE,
                         file=file_with_contents)
        assert proc.read(addr, 11) == b"file header"
        proc.write(addr, b"PRIVATE CHG")
        assert proc.read(addr, 11) == b"PRIVATE CHG"
        # The file itself is untouched.
        cached = machine.kernel.page_cache.read(file_with_contents, 0, 11)
        assert cached == b"file header"

    def test_private_file_cow_isolated_across_fork(self, proc,
                                                   file_with_contents):
        addr = proc.mmap(256 * 1024, flags=MAP_PRIVATE,
                         file=file_with_contents)
        proc.read(addr, 1)
        child = proc.fork()
        child.write(addr, b"child edit!")
        assert proc.read(addr, 11) == b"file header"

    def test_executable_mapping_model(self, proc, machine):
        """The §3.7 motivation: program text is a read-only file mapping."""
        text = machine.kernel.fs.create("/bin/app", size=64 * 1024)
        text.set_initial_contents(b"\x7fELF machine code")
        addr = proc.mmap(64 * 1024, prot=PROT_READ, flags=MAP_PRIVATE,
                         file=text, name="text")
        child = proc.odfork()
        assert child.read(addr, 4) == b"\x7fELF"
        assert proc.read(addr, 4) == b"\x7fELF"


class TestFilePageAudit:
    def test_file_page_under_anonymous_vma_fails_the_audit(self, machine):
        """A PG_FILE frame belongs in a file-backed VMA: the audit must
        report one mapped anywhere else."""
        proc = machine.spawn_process("anon")
        buf = proc.mmap(1 * MIB)
        proc.touch_range(buf, 1 * MIB, write=True)
        audit_machine(machine)
        leaf = proc.mm.get_pte_table(buf + 5 * PAGE_SIZE)
        index = (buf // PAGE_SIZE + 5) % PTRS_PER_TABLE
        machine.pages.flags[int(entry_pfn(leaf.entries[index]))] |= PG_FILE
        with pytest.raises(AssertionError,
                           match=f"mapped at {buf + 5 * PAGE_SIZE:#x} "
                                 f"outside a file mapping"):
            audit_machine(machine)
