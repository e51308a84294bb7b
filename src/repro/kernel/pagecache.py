"""The page cache: physical pages backing file contents.

Every file-backed page lives here exactly once, keyed by ``(inode, page
index)``.  The cache holds one reference on each cached page; page tables
that map the page hold additional references (the same ownership rule the
rest of the model uses: one reference per PageTable object per present
entry).  A page can therefore never be freed while mapped, and dropping a
file's cache only frees pages no table references.

This is what makes §3.7 of the paper work unchanged under On-demand-fork:
the fault handler forwards file-backed faults here, and physical-page
lifetime is the cache's business, not the PTE-table refcount's.
"""

from __future__ import annotations

from ..errors import KernelBug
from ..mem.page import PAGE_SIZE, PG_DIRTY, PG_FILE


class PageCache:
    """(inode, page index) -> pfn mapping with cache-held references."""

    def __init__(self, allocator, pages, phys, failpoints=None):
        self._allocator = allocator
        self._pages = pages
        self._phys = phys
        self._failpoints = failpoints
        self._cache = {}
        self.fills = 0

    def __len__(self):
        return len(self._cache)

    def get_page(self, file, page_index):
        """Return the pfn for a file page, filling the cache on miss.

        The fill copies the file's initial contents into a fresh frame —
        the model's "read from backing store" — and the cache takes its
        reference.
        """
        key = (file.inode, page_index)
        pfn = self._cache.get(key)
        if pfn is not None:
            return pfn
        if self._failpoints is not None:
            self._failpoints.hit("pagecache.fill")
        pfn = int(self._allocator.alloc(0))
        self._pages.on_alloc(pfn, PG_FILE)
        data = file.initial_page(page_index)
        if any(data):
            self._phys.write(pfn, 0, data)
        self._cache[key] = pfn
        self.fills += 1
        return pfn

    def mark_dirty(self, pfn):
        """Flag a cached page dirty (blocks clean reclaim)."""
        self._pages.set_flags(pfn, PG_DIRTY)

    def read(self, file, offset, length):
        """Read bytes through the cache (the model's ``read(2)``)."""
        out = bytearray()
        pos = offset
        end = min(offset + length, file.size)
        while pos < end:
            page_index = pos // PAGE_SIZE
            page_off = pos % PAGE_SIZE
            take = min(PAGE_SIZE - page_off, end - pos)
            pfn = self.get_page(file, page_index)
            out += self._phys.read(pfn, page_off, take)
            pos += take
        return bytes(out)

    def write(self, file, offset, data):
        """Write bytes through the cache (the model's ``write(2)``)."""
        pos = 0
        while pos < len(data):
            abs_off = offset + pos
            page_index = abs_off // PAGE_SIZE
            page_off = abs_off % PAGE_SIZE
            take = min(PAGE_SIZE - page_off, len(data) - pos)
            pfn = self.get_page(file, page_index)
            self._phys.write(pfn, page_off, data[pos:pos + take])
            self.mark_dirty(pfn)
            pos += take
        file.size = max(file.size, offset + len(data))

    def drop_file(self, file):
        """Evict a file's pages, freeing those with no other references."""
        keys = [k for k in self._cache if k[0] == file.inode]
        for key in keys:
            pfn = self._cache.pop(key)
            new_count = self._pages.ref_dec(pfn)
            if new_count == 0:
                self._pages.on_free(pfn)
                self._phys.zero(pfn)
                self._allocator.free(pfn, 0)  # sancheck: ignore[clock-charge] -- file eviction rides the unlink/close syscall cost; cache drops are below per-op resolution

    def reclaim_clean(self, target_frames):
        """Drop clean, unmapped pages under memory pressure.

        Returns the number of frames actually freed; the OOM path calls
        this before killing anyone.
        """
        freed = 0
        for key in list(self._cache):
            if freed >= target_frames:
                break
            pfn = self._cache[key]
            if self._pages.get_ref(pfn) != 1:
                continue  # mapped somewhere
            if self._pages.has_flags(pfn, PG_DIRTY):
                continue  # would need writeback; keep it simple and skip
            del self._cache[key]
            if self._pages.ref_dec(pfn) != 0:
                raise KernelBug("cache ref accounting broken during reclaim")
            self._pages.on_free(pfn)
            self._phys.zero(pfn)
            # sancheck: ignore[clock-charge] -- background eviction is charged by the reclaim scan loops (charge_lru_scan), not per freed frame
            self._allocator.free(pfn, 0)
            freed += 1
        return freed
