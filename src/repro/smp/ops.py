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
from ..errors import OutOfMemoryError
from ..kernel.fault import fault_walk
from ..kernel.fork import SLOT_DONE, classic_copy_walk
from ..kernel.odfork import odf_share_walk
from ..mem.page import PAGE_SIZE
from .locks import MODE_READ, MODE_WRITE
from .sched import Acquire, Preempt, Release

#: FAULT INJECTION (tests only): skip the split page-table lock around the
#: fault handler in :func:`access_flow`.  Two tasks faulting into the same
#: leaf table then mutate it with no common exclusive lock — the bug class
#: the KCSAN sampler and the static lock-context rule both exist to catch.
#: Never enable outside a test.
FAULT_INJECT_SKIP_PTL = False


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

    Per page, under ``mmap_lock`` (read): the kernel's TLB lookup and
    walk (``Kernel.translate_access``) and, when the walk faults, the
    kernel's own fault loop (``fault_walk``).  The flow adds only the
    locking: a preemption point at each fault entry, the split PTL of
    each key the loop yields (it re-checks the key itself after the
    wait), and the contention-phase bracket around the handler.
    """
    kernel = process.kernel
    task = process.task
    mmap = sched.mmap_lock(task.mm)
    first = vaddr & ~(PAGE_SIZE - 1)
    last = vaddr + max(1, n_bytes) - 1
    for page in range(first, last + 1, PAGE_SIZE):
        yield Acquire(mmap, MODE_READ)
        if kernel.translate_access(task, page, is_write) is None:
            faults = fault_walk(kernel, task, page, is_write)
            for _entry in faults:  # FAULT_ENTRY, once per fault
                yield Preempt("fault.entry")
                key = faults.send(not FAULT_INJECT_SKIP_PTL)
                ptl = None
                if key is not None:
                    ptl = sched.pt_lock(key)
                    yield Acquire(ptl)
                sched.phase_enter()
                try:
                    # The handler runs, after a re-check when we queued;
                    # FAULT_DONE comes back.
                    faults.send(ptl is not None)
                finally:
                    sched.phase_exit()
                if ptl is not None:
                    yield Release(ptl)
        yield Release(mmap)


def write_flow(sched, process, addr, data):
    """Fault in ``[addr, addr + len(data))`` for write, then store bytes."""
    yield from access_flow(sched, process, addr, len(data), is_write=True)
    # Permissions are resolved; the store itself hits the warmed TLB.
    process.write(addr, data)


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
