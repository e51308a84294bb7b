"""The software MMU: hierarchical page-table walking.

This is the model of what the hardware page walker does, including the one
architectural capability On-demand-fork depends on: *hierarchical
attributes*.  The effective write permission of a translation is the AND of
the RW bits along the whole walk, so clearing RW in a single PMD entry
write-protects the entire 2 MiB region its PTE table maps — without
touching any of the 512 leaf entries.  That is how odfork write-protects
shared tables in O(1) per table (§3.2 of the paper).

The walker also sets accessed bits like the CPU would (the paper notes the
A bit keeps working while tables are shared because setting it is a
hardware write that does not go through the kernel), and sets the dirty bit
on successful write translations.  The D bit can never be set through a
shared table: the PMD RW=0 override makes every write fault first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..mem.page import HUGE_PAGE_ORDER
from .entries import (
    INT_ACCESSED as _A,
    INT_DIRTY as _D,
    INT_PFN_MASK as _PFN_MASK,
    INT_PRESENT as _P,
    INT_PS as _PS,
    INT_RW as _RW,
    PFN_SHIFT,
)
from .table import LEVEL_PGD, LEVEL_PMD, LEVEL_PTE

# The walk is the hottest scalar loop in request-serving benchmarks, so it
# runs on plain Python ints: one ``ndarray.item`` read per level (about half
# the cost of ``int(entries[i])``), int bit ops after that (each np.uint64
# op costs ~10x an int op).
_AD = _A | _D
_PFN_SHIFT = int(PFN_SHIFT)
_SUB_MASK = (1 << HUGE_PAGE_ORDER) - 1

FAULT_NOT_PRESENT = "not_present"
FAULT_WRITE_PROTECTED = "write_protected"


class MMUFault(ReproError):
    """Raised by the walker when translation cannot complete.

    This is the hardware #PF signal, *not* an application error: the kernel
    fault handler catches it and either fixes the mapping up or converts it
    into a :class:`~repro.errors.SegmentationFault`.
    """

    def __init__(self, vaddr, is_write, level, reason):
        # Most faults are caught and fixed up, so the message is built
        # only when something prints one.
        self.vaddr = vaddr
        self.is_write = is_write
        self.level = level
        self.reason = reason

    def __str__(self):
        return (f"#PF at {self.vaddr:#x} "
                f"({'write' if self.is_write else 'read'}, "
                f"level {self.level}, {self.reason})")


@dataclass
class Translation:
    """A successful walk result: the 4 KiB frame and its permission.

    Under a 2 MiB entry ``pfn`` is the sub-page's frame, so callers never
    need to know which level mapped it.
    """

    pfn: int                # physical frame of the 4 KiB page
    writable: bool          # effective permission across all levels


class Walker:
    """Walks paging structures through a pfn → PageTable resolver."""

    def __init__(self, resolver):
        self._resolve = resolver
        #: Table pfns visited by the most recent successful translate, in
        #: walk order (PGD first).  The NUMA cost model reads this to
        #: distance-weight each level of the walk.
        self.path = ()

    # sancheck: ignore[clock-charge] -- accessed/dirty bits are set by the MMU in hardware; fault handlers charge the walk via their own cost models
    def translate(self, pgd, vaddr, is_write, set_accessed=True):
        """Translate ``vaddr`` or raise :class:`MMUFault`.

        Mirrors the hardware: permissions are evaluated along the walk (an
        RW=0 entry anywhere makes the translation read-only), accessed bits
        are set at every visited level, and the dirty bit is set on the
        leaf for a successful write.
        """
        table = pgd
        writable = True
        level = LEVEL_PGD
        path = [pgd.pfn]
        resolve = self._resolve
        while True:
            index = (vaddr >> (3 + 9 * level)) & 0x1FF
            entries = table.entries
            entry = entries.item(index)
            if not entry & _P:
                raise MMUFault(vaddr, is_write, level, FAULT_NOT_PRESENT)
            if writable and not entry & _RW:
                writable = False
            if level == LEVEL_PMD and entry & _PS:
                if is_write and not writable:
                    raise MMUFault(vaddr, is_write, level, FAULT_WRITE_PROTECTED)
                if set_accessed:
                    want = entry | (_AD if is_write else _A)
                    if want != entry:
                        entries[index] = want
                head = (entry & _PFN_MASK) >> _PFN_SHIFT
                sub = (vaddr >> 12) & _SUB_MASK
                self.path = path
                return Translation(head + sub, writable)
            if level == LEVEL_PTE:
                if is_write and not writable:
                    raise MMUFault(vaddr, is_write, level, FAULT_WRITE_PROTECTED)
                if set_accessed:
                    want = entry | (_AD if is_write else _A)
                    if want != entry:
                        entries[index] = want
                self.path = path
                return Translation((entry & _PFN_MASK) >> _PFN_SHIFT, writable)
            if set_accessed and not entry & _A:
                entries[index] = entry | _A
            table = resolve((entry & _PFN_MASK) >> _PFN_SHIFT)
            path.append(table.pfn)
            level -= 1

    def probe(self, pgd, vaddr):
        """Translate for read without side effects; ``None`` if unmapped."""
        try:
            return self.translate(pgd, vaddr, is_write=False, set_accessed=False)
        except MMUFault:
            return None
