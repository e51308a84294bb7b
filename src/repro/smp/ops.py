"""Generator task bodies driving kernel operations under the SMP scheduler.

Each flow performs the *same* kernel work as the corresponding syscall,
but yields scheduling events exactly where a real SMP kernel could be
interleaved by another CPU:

* ``Acquire``/``Release`` around ``mmap_lock`` (write for fork-family,
  read for the fault path) and the split page-table locks;
* ``Preempt`` at fault entry and at every 2 MiB copy/share boundary.

The kernel work between two yields executes atomically — that is the
cooperative model's definition of an interleaving point — so the
explorer's schedules enumerate exactly these boundaries.
"""

from __future__ import annotations

from ..core.process import Process
from ..errors import KernelBug, OutOfMemoryError
from ..kernel.fork import SLOT_DONE, classic_copy_walk
from ..kernel.odfork import odf_share_walk
from ..mem.page import PAGE_SIZE
from ..paging.entries import entry_pfn, is_huge, is_present
from ..paging.walk import MMUFault
from .locks import MODE_READ, MODE_WRITE
from .sched import Acquire, Preempt, Release

#: FAULT INJECTION (tests only): skip the split page-table lock around the
#: fault handler in :func:`access_flow`.  Two tasks faulting into the same
#: leaf table then mutate it with no common exclusive lock — the bug class
#: the KCSAN sampler and the static lock-context rule both exist to catch.
#: Never enable outside a test.
FAULT_INJECT_SKIP_PTL = False


def _ptl_key(mm, vaddr):
    """The split-lock key guarding ``vaddr``'s last-level translation.

    The leaf table's pfn when one exists (Linux keeps the PTL in the leaf
    table's struct page); the PMD table's pfn for absent or huge slots;
    ``None`` when no PMD table covers the address yet (nothing allocated
    to contend on — the fault runs atomically anyway).
    """
    walked = mm.walk_to_pmd(vaddr, alloc=False)
    if walked is None:
        return None
    pmd_table, pmd_index = walked
    entry = pmd_table.entries[pmd_index]
    if is_present(entry) and not is_huge(entry):
        return int(entry_pfn(entry))
    return int(pmd_table.pfn)


def fork_flow(sched, process, use_odf=False, child_name=None):
    """Fork ``process`` slot-by-slot under ``mmap_lock`` + per-table PTLs.

    Drives the kernel's own fork walk (``classic_copy_walk`` or
    ``odf_share_walk``) and adds only the locking: ``mmap_lock`` for
    write around the whole fork, each leaf slot's PTL around that slot,
    and a preemption point between slots.  Classic forks run inside the
    emergent-contention phase (their leaf loops hammer the struct-page
    cachelines); odforks never touch the leaf level and stay out of it
    — which is exactly the paper's scalability argument.  An OOM unwinds
    like the syscall's: the half-built child is torn down before
    ``mmap_lock`` is dropped.  Returns ``{"child": Process,
    "elapsed_ns": n}`` via the generator's return value; ``elapsed_ns``
    spans lock wait to final shootdown like a wall-clock measurement of
    the syscall.
    """
    kernel = process.kernel
    task = process.task
    mm = task.mm
    mmap = sched.mmap_lock(mm)
    t_start = sched.now_ns()
    kernel.cost.charge_syscall()
    yield Acquire(mmap, MODE_WRITE)
    child_task = kernel._fork_child(task, child_name)
    if use_odf:
        walk = odf_share_walk(kernel, mm, child_task.mm)
        tag = "odfork.slot"
    else:
        walk = classic_copy_walk(kernel, mm, child_task.mm)
        tag = "fork.slot"
        sched.phase_enter()
    ptl = None
    try:
        for key in walk:
            if key is SLOT_DONE:
                if ptl is not None:
                    yield Release(ptl)
                    ptl = None
                yield Preempt(tag)
            elif key is not None:
                ptl = sched.pt_lock(key)
                yield Acquire(ptl)
    except OutOfMemoryError:
        if ptl is not None:
            yield Release(ptl)
        kernel._abort_fork(task, child_task)
        raise
    finally:
        if not use_odf:
            sched.phase_exit()
        yield Release(mmap)
    elapsed = sched.now_ns() - t_start
    task.last_fork_ns = elapsed
    return {"child": Process(process.machine, child_task),
            "elapsed_ns": elapsed}


def access_flow(sched, process, vaddr, n_bytes=1, is_write=True):
    """Touch ``[vaddr, vaddr + n_bytes)`` the way user code would.

    Per page: TLB lookup on the current vCPU, then the hardware-walk /
    fault loop.  The fault handler runs under ``mmap_lock`` (read) and
    the page-table lock covering the address, with a revalidation after
    the PTL acquire (the table may have been COW-replaced while we
    queued — the same re-check Linux does after ``pte_offset_map_lock``).
    """
    kernel = process.kernel
    task = process.task
    mm = task.mm
    mmap = sched.mmap_lock(mm)
    first = vaddr & ~(PAGE_SIZE - 1)
    last = vaddr + max(1, n_bytes) - 1
    for page in range(first, last + 1, PAGE_SIZE):
        yield Acquire(mmap, MODE_READ)
        for _attempt in range(8):
            tlb = kernel.active_tlb(mm)
            if tlb.lookup(page, is_write) is not None:
                break
            try:
                tr = kernel.walker.translate(mm.pgd, page, is_write)
            except MMUFault:
                yield Preempt("fault.entry")
                key = _ptl_key(mm, page)
                if key is None:
                    sched.phase_enter()
                    try:
                        kernel.fault_handler.handle(task, page, is_write)
                    finally:
                        sched.phase_exit()
                    continue
                ptl = sched.pt_lock(key)
                if not FAULT_INJECT_SKIP_PTL:
                    yield Acquire(ptl)
                    if _ptl_key(mm, page) != key:
                        # The table was replaced while we queued; retry
                        # with the lock that now covers the address.
                        yield Release(ptl)
                        continue
                sched.phase_enter()
                try:
                    kernel.fault_handler.handle(task, page, is_write)
                finally:
                    sched.phase_exit()
                if not FAULT_INJECT_SKIP_PTL:
                    yield Release(ptl)
                continue
            else:
                tlb.insert(page, tr.pfn, tr.writable, tr.huge)
                break
        else:
            raise KernelBug(f"SMP fault loop did not converge at {page:#x}")
        yield Release(mmap)


def write_flow(sched, process, addr, data):
    """Fault in ``[addr, addr + len(data))`` for write, then store bytes."""
    yield from access_flow(sched, process, addr, len(data), is_write=True)
    # Permissions are resolved; the store itself hits the warmed TLB.
    process.write(addr, data)


def read_flow(sched, process, addr, length, sink=None):
    """Fault in a range for read, then load it; bytes land in ``sink``."""
    yield from access_flow(sched, process, addr, length, is_write=False)
    data = process.read(addr, length)
    if sink is not None:
        sink.append(data)
    return data


def kswapd_flow(sched, machine, target_frames=8, max_attempts=None):
    """Background reclaim as a schedulable task.

    Victims are picked off the LRU one at a time; for each, every
    page-table lock covering a mapping is taken in ascending-pfn order
    (rmap tells us the set), the mapping set is revalidated after the
    waits, and only then is the page unmapped and swapped out.
    """
    kernel = machine.kernel
    reclaim = kernel.reclaim
    if reclaim is None:
        return 0
    freed = 0
    attempts = 0
    limit = max_attempts if max_attempts is not None else 4 * target_frames + 16
    was_running = reclaim.running
    reclaim.running = True
    try:
        while freed < target_frames and attempts < limit:
            attempts += 1
            yield Preempt("kswapd.scan")
            pfn = reclaim.pick_victim()
            if pfn is None:
                break
            tables = sorted(kernel.rmap.tables_for(pfn))
            if not tables:
                continue  # lost its last mapping while queued; frame gone
            locks = [sched.pt_lock(t) for t in tables]
            for lock in locks:
                yield Acquire(lock)
            current = sorted(kernel.rmap.tables_for(pfn))
            if current == tables:
                if reclaim.evict_candidate(pfn, from_kswapd=True):
                    freed += 1
            elif current and pfn not in reclaim.active \
                    and pfn not in reclaim.inactive:
                # The mapping set changed while we queued (a fork added a
                # sharer, a COW dropped one): rotate the page back.
                reclaim.active.add(pfn)
            for lock in reversed(locks):
                yield Release(lock)
    finally:
        reclaim.running = was_running
    return freed
