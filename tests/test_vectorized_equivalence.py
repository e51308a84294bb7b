"""Differential equivalence: analytic fast path vs per-event reference.

Every scenario below runs twice on twin machines — one with the analytic
fast path enabled (the default), one forced per-event with
``Machine(fastpath=False)`` — and asserts a *complete* fingerprint match:
logical memory content, per-process RSS, vmstat counters, kernel stats,
and the virtual clock down to the nanosecond.  The clock assertion is the
strong one: the fast path replays the per-event charge stream through the
same noise draws, so even the jittered virtual time must agree exactly.

The per-event fingerprints are additionally frozen as golden constants.
When a scenario fails, the golden tells you which backend moved: a
fingerprint mismatch with an unchanged golden means the fast path
regressed; a changed golden means the per-event reference itself changed
and the golden needs a deliberate reseed.
"""

import hashlib

import pytest

from repro import MAP_PRIVATE, Machine
from repro.kernel.kernel import MADV_DONTNEED, MADV_HUGEPAGE
from repro.verify import audit_machine, physical_layout

MIB = 1024 * 1024
GIB = 1024 * MIB


def fingerprint(machine, procs_and_regions):
    """Digest everything the equivalence contract promises is identical."""
    h = hashlib.sha256()
    for process, regions in procs_and_regions:
        if not process.alive:
            h.update(b"dead")
            continue
        h.update(str(process.rss_bytes).encode())
        for addr, length in regions:
            h.update(process.read(addr, length))
    for key in sorted(machine.vmstat()):
        h.update(f"{key}={machine.vmstat()[key]}".encode())
    stats = machine.stats
    for name in ("forks", "odforks", "page_faults", "cow_faults",
                 "demand_zero_faults", "tables_shared"):
        h.update(f"{name}={getattr(stats, name)}".encode())
    h.update(str(machine.kernel.clock.now_ns).encode())
    h.update(str(machine.used_frames()).encode())
    return h.hexdigest()[:16]


def run_paired(scenario, golden=None, **machine_kwargs):
    prints = {}
    for label, fastpath in (("fast", True), ("per-event", False)):
        machine = Machine(fastpath=fastpath, **machine_kwargs)
        tracked = scenario(machine)
        prints[label] = fingerprint(machine, tracked)
    assert prints["fast"] == prints["per-event"], (
        f"fast path diverged from the per-event reference: {prints}")
    if golden is not None:
        assert prints["per-event"] == golden, (
            f"the per-event reference itself moved (got "
            f"{prints['per-event']!r}); reseed the golden only if the "
            f"change is deliberate")
    return prints["per-event"]


# ---------------------------------------------------------------------- #
# scenarios


def classic_fork_flow(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(4 * MIB)
    parent.touch_range(addr, 4 * MIB, write=True)
    parent.write(addr + 123, b"parent-before-fork")
    child = parent.fork("child")
    child.write(addr + 123, b"child-after-fork!!")
    parent.touch_range(addr, 1 * MIB, write=True)
    grandchild = child.fork("grandchild")
    grandchild.write(addr + 2 * MIB, b"gc")
    tracked = [(parent, [(addr, 4 * MIB)]), (child, [(addr, 4 * MIB)]),
               (grandchild, [(addr, 4 * MIB)])]
    child.exit()
    return tracked


def odfork_flow(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(6 * MIB)
    parent.touch_range(addr, 6 * MIB, write=True)
    parent.write(addr, b"shared tables ahead")
    child = parent.odfork("child")
    # Table-COW: first writes through shared tables copy one table each.
    child.write(addr + 1 * MIB, b"child table cow")
    parent.write(addr + 3 * MIB, b"parent table cow")
    sibling = parent.odfork("sibling")
    sibling.touch_range(addr, 2 * MIB, write=True)
    tracked = [(parent, [(addr, 6 * MIB)]), (child, [(addr, 6 * MIB)]),
               (sibling, [(addr, 6 * MIB)])]
    sibling.exit()
    return tracked


def fault_mix_flow(machine):
    proc = machine.spawn_process("faulty")
    a = proc.mmap(2 * MIB)
    b = proc.mmap(3 * MIB)
    proc.touch_range(a, 2 * MIB, write=False)   # demand-zero, read
    proc.touch_range(a, 1 * MIB, write=True)    # upgrade to dirty
    proc.touch_range(b, 3 * MIB, write=True)
    proc.madvise(b, 1 * MIB, MADV_DONTNEED)     # zap, then refault
    proc.touch_range(b, 1 * MIB, write=True)
    child = proc.fork("reader")
    child.touch_range(a, 2 * MIB, write=False)
    child.write(b + 5000, b"cow one page")
    return [(proc, [(a, 2 * MIB), (b, 3 * MIB)]),
            (child, [(a, 2 * MIB), (b, 3 * MIB)])]


def odfork_rss_flow(machine):
    # The parent spans three PMD tables and maps anon, huge, shared-file
    # and private-file pages, so the child's RSS covers every kind of
    # page its shared tables map.
    blob = machine.kernel.fs.create("/data/odfork-blob", size=1 * MIB)
    blob.set_initial_contents(b"file page zero", offset=0)
    parent = machine.spawn_process("parent")
    big = parent.mmap(2 * GIB + 4 * MIB)
    parent.touch_range(big, 2 * MIB, write=True)
    parent.touch_range(big + GIB, 1 * MIB, write=True)
    parent.touch_range(big + 2 * GIB, 4 * MIB, write=False)
    huge = parent.mmap_huge(4 * MIB)
    parent.touch_range(huge, 4 * MIB, write=True)
    shared = parent.mmap_shared(1 * MIB, file=blob)
    parent.touch_range(shared, 1 * MIB, write=False)
    private = parent.mmap(512 * 1024, flags=MAP_PRIVATE, file=blob)
    parent.touch_range(private, 512 * 1024, write=False)
    parent.write(private + 4096, b"private file cow")
    child = parent.odfork("child")
    child.write(big + GIB + 4096, b"child table cow")
    child.write(huge + 7, b"huge cow in child")
    grandchild = child.odfork("grandchild")
    grandchild.touch_range(shared, 1 * MIB, write=True)
    audit_machine(machine)
    regions = [(big, 2 * MIB), (big + GIB, 2 * MIB), (big + 2 * GIB, 4 * MIB),
               (huge, 4 * MIB), (shared, 1 * MIB), (private, 512 * 1024)]
    tracked = [(parent, regions), (child, regions), (grandchild, regions)]
    child.exit()
    return tracked


def reclaim_flow(machine):
    # Small machine: the later allocations push past the watermark and
    # wake reclaim, swapping cold pages out; the fork fast path must
    # bail (headroom rule), and the exit fast path releases the child's
    # swap entries table by table, so this scenario exercises the
    # engagement predicate.
    proc = machine.spawn_process("hog")
    a = proc.mmap(8 * MIB)
    proc.touch_range(a, 8 * MIB, write=True)
    b = proc.mmap(8 * MIB)
    proc.touch_range(b, 8 * MIB, write=True)
    child = proc.fork("c")
    child.touch_range(a, 1 * MIB, write=True)
    child.exit()
    proc.touch_range(a, 2 * MIB, write=False)
    return [(proc, [(a, 8 * MIB), (b, 8 * MIB)])]


def overcommit_flow(machine):
    # A fork server with a heap twice RAM: each dispatch forks or odforks
    # a child that writes a few random pages and exits.  The writes run
    # the per-event fault path under reclaim (table COW, data COW,
    # swap-in) and the exits release swap slots; a long-lived odfork
    # child keeps the heap's tables shared, so kswapd unmaps through
    # shared tables.  ``reclaim_flow`` touches only whole ranges.
    import random

    server = machine.spawn_process("server")
    heap = server.mmap(32 * MIB)
    server.touch_range(heap, 32 * MIB, write=True)
    keeper = server.odfork("keeper")
    rng = random.Random(21)
    for i in range(12):
        child = server.odfork(f"c{i}") if i % 2 else server.fork(f"c{i}")
        for _ in range(24):
            page = rng.randrange(32 * MIB // 4096)
            child.write(heap + page * 4096 + 8, b"request%02d" % i)
        child.exit()
        server.wait()
    vm = machine.vmstat()
    for counter in ("table_cow_copies", "pswpin", "cow_faults",
                    "kswapd_wakeups", "shared_table_unmaps"):
        assert vm[counter] > 0, counter
    return [(server, [(heap, 4 * MIB)]), (keeper, [(heap + 28 * MIB, 4 * MIB)])]


def swap_exit_flow(machine):
    # An exit whose dead tables hold the last references to thousands of
    # swap slots with swap-cache frames: the parent swapped its pages
    # back in and then dropped them, so each slot's release frees its
    # cached frame, between the child's per-table buddy frees.
    parent = machine.spawn_process("parent")
    heap = parent.mmap(32 * MIB)
    parent.touch_range(heap, 32 * MIB, write=True)
    child = parent.fork("child")
    parent.touch_range(heap, 32 * MIB, write=False)
    parent.madvise(heap, 32 * MIB, MADV_DONTNEED)
    assert machine.vmstat()["swap_cache_pages"] > 0
    child.exit()
    parent.wait()
    assert machine.vmstat()["swap_cache_pages"] == 0
    return [(parent, [(heap, 2 * MIB)])]


def thp_flow(machine):
    proc = machine.spawn_process("huge")
    addr = proc.mmap(8 * MIB)
    proc.madvise(addr, 8 * MIB, MADV_HUGEPAGE)
    proc.touch_range(addr, 8 * MIB, write=True)
    proc.write(addr + 4096, b"huge page payload")
    child = proc.fork("child")       # huge entries copied with refcounts
    child.write(addr + 2 * MIB + 7, b"huge cow in child")
    sib = proc.odfork("sib")
    sib.touch_range(addr, 4 * MIB, write=False)
    tracked = [(proc, [(addr, 8 * MIB)]), (child, [(addr, 8 * MIB)]),
               (sib, [(addr, 8 * MIB)])]
    child.exit()
    return tracked


def numa_flow(machine):
    # With a NUMA topology the fast path must disengage entirely
    # (fast_path_ok requires kernel.numa is None); the paired machines
    # still have different `fastpath` attributes, proving the knob is
    # inert when the predicate says no.
    proc = machine.spawn_process("numa")
    addr = proc.mmap(4 * MIB)
    proc.touch_range(addr, 4 * MIB, write=True)
    child = proc.odfork("child")
    child.write(addr + MIB, b"replicated tables")
    tracked = [(proc, [(addr, 4 * MIB)]), (child, [(addr, 4 * MIB)])]
    child.exit()
    return tracked


def _fill_counts(machine):
    counts = machine.metrics.collect("fastpath")
    return (counts["fill_engaged"], counts.get("fill_bailed.headroom", 0),
            counts.get("fill_bailed.disabled", 0))


def _assert_filled(machine, mark, engaged, headroom=0):
    """Since ``mark``, the batched fill took ``engaged`` slots and left
    ``headroom`` slots to the per-slot path for lack of free memory; the
    per-event machine counts both as refusals.  Returns the new mark."""
    now = _fill_counts(machine)
    delta = tuple(b - a for a, b in zip(mark, now))
    if machine.kernel.fastpath:
        assert delta == (engaged, headroom, 0)
    else:
        assert delta == (0, 0, engaged + headroom)
    return now


def populate_flow(machine):
    # First-touch fills that the batched fill (bulkops.fast_fill_run)
    # takes or refuses.  Each step pins the slot counts through the
    # fastpath counters, so the pair cannot agree vacuously.
    proc = machine.spawn_process("populate")
    mark = _fill_counts(machine)
    # A mapping across the first 1 GiB boundary of the mmap area; the pad
    # below it is unmapped before anything touches it.
    pad = proc.mmap(GIB - 6 * MIB)
    cross = proc.mmap(24 * MIB)
    proc.munmap(pad, GIB - 6 * MIB)
    # A read fill with misaligned start and end: one run per PMD table.
    proc.touch_range(cross + 5 * 4096 + 7, 10 * MIB - 9 * 4096, write=False)
    mark = _assert_filled(machine, mark, engaged=3 + 2)
    # A write over it: the five slots go per slot (their holes filled),
    # the sixth is a fresh one-slot run.
    proc.touch_range(cross, 12 * MIB, write=True)
    mark = _assert_filled(machine, mark, engaged=1)
    # One present slot in the middle of the range splits it in two runs.
    mid = proc.mmap(16 * MIB)
    proc.touch_range(mid + 6 * MIB + 4096, 4096, write=True)
    mark = _assert_filled(machine, mark, engaged=1)
    proc.touch_range(mid, 16 * MIB, write=True)
    mark = _assert_filled(machine, mark, engaged=3 + 4)
    # A range spanning two VMAs: the slot holding their boundary goes per
    # slot, each VMA's whole slots are runs.
    left = proc.mmap(3 * MIB)
    proc.mmap(5 * MIB)
    proc.touch_range(left, 8 * MIB, write=True)
    mark = _assert_filled(machine, mark, engaged=1 + 2)
    regions = [(cross, 12 * MIB), (mid, 16 * MIB), (left, 8 * MIB)]
    if machine.kernel.reclaim is not None:
        # With rmap live, a run that would end below wm_low is refused
        # whole; its per-slot fill then wakes kswapd part way.
        tight = proc.mmap(32 * MIB)
        proc.touch_range(tight, 32 * MIB, write=True)
        _assert_filled(machine, mark, engaged=0, headroom=16)
        assert machine.vmstat()["pswpout"] > 0
        regions.append((tight, 32 * MIB))
    return [(proc, regions)]


def smp_flow(machine):
    # Two scheduled fork_flow rounds with direct fills, forks, odforks and
    # exits around them.  Only a running scheduler refuses the fast path,
    # so the direct calls engage and must leave the per-event state.
    from repro.smp.ops import fork_flow

    sched = machine.smp
    procs = [machine.spawn_process(f"p{i}") for i in range(2)]
    # p0's heap straddles the first 1 GiB boundary of the mmap area, so
    # its forks copy two PMD tables.
    pad = procs[0].mmap(GIB - 2 * MIB)
    sizes = (6 * MIB, 8 * MIB)
    bufs = [proc.mmap(size) for proc, size in zip(procs, sizes)]
    procs[0].munmap(pad, GIB - 2 * MIB)
    for proc, addr, size in zip(procs, bufs, sizes):
        proc.touch_range(addr, size, write=True)
        proc.write(addr + 99, proc.name.encode())

    def fork_round(use_odf):
        tasks = [sched.spawn(f"fork-{i}", fork_flow(sched, q, use_odf=use_odf),
                             mm=q.mm)
                 for i, q in enumerate(procs)]
        sched.run()
        return [task.result["child"] for task in tasks]

    first = fork_round(use_odf=False)
    first[0].write(bufs[0] + 99, b"c0")
    # The direct child lives to the end, so its leaf tables' packed rows
    # are part of the layout the allocator-parity test compares.
    direct = procs[0].fork("direct")
    direct.write(bufs[0] + 2 * MIB, b"direct")
    shared = procs[1].odfork("shared")
    shared.write(bufs[1] + 4 * MIB, b"cow")
    for child in first:
        child.exit()
    extra = procs[1].mmap(4 * MIB)
    procs[1].touch_range(extra, 4 * MIB, write=True)
    second = fork_round(use_odf=True)
    second[1].write(extra + 5, b"od")
    procs[1].fork("brief").exit()
    counts = machine.metrics.collect("fastpath")
    if machine.kernel.fastpath:
        # Fills of 3 + 4 + 2 slots, two direct forks, and the exits of
        # the first round's children (p0's holds two PMD tables, p1's
        # one) and of the brief child.
        assert (counts["fill_engaged"], counts["fork_engaged"],
                counts["exit_engaged"]) == (9, 2, 4)
    return [(procs[0], [(bufs[0], sizes[0])]),
            (procs[1], [(bufs[1], sizes[1]), (extra, 4 * MIB)]),
            (direct, [(bufs[0], sizes[0])]),
            (shared, [(bufs[1], sizes[1])]),
            (second[0], [(bufs[0], sizes[0])]),
            (second[1], [(bufs[1], sizes[1]), (extra, 4 * MIB)])]


# ---------------------------------------------------------------------- #
# golden per-event fingerprints (see module docstring for reseed policy)

GOLDEN = {
    "classic": "3222f1857e8472c6",
    "odfork": "5289d2a9052b416e",
    "fault_mix": "f299722d2beef818",
    "reclaim": "21c0383a7f9429d1",
    "thp": "6d25909a7c898384",
    "numa": "f3140b6a0f20b844",
    "odfork_rss": "c5d53577a932c124",
    "populate": "3e8c12c5fd62bd89",
    "populate_swap": "8dc4bab8d49acb23",
    "smp": "b9cb6fe09eff5744",
    "overcommit": "c226788d670744be",
    "swap_exit": "c1ee05ab807e6b45",
}

#: Per-event ``physical_layout`` digests, pinned like ``GOLDEN``.
LAYOUT_GOLDEN = {
    "overcommit": "e94028992651d051",
    "swap_exit": "aa9482e7c294cd64",
}


class TestFastPathEquivalence:
    def test_classic_fork_flow(self):
        run_paired(classic_fork_flow, GOLDEN["classic"], phys_mb=128)

    def test_odfork_flow(self):
        run_paired(odfork_flow, GOLDEN["odfork"], phys_mb=128)

    def test_fault_mix_flow(self):
        run_paired(fault_mix_flow, GOLDEN["fault_mix"], phys_mb=128)

    def test_reclaim_flow(self):
        run_paired(reclaim_flow, GOLDEN["reclaim"], phys_mb=24, swap_mb=32)

    def test_thp_flow(self):
        run_paired(thp_flow, GOLDEN["thp"], phys_mb=128)

    def test_numa_flow(self):
        from repro.numa.topology import NumaTopology
        run_paired(numa_flow, GOLDEN["numa"], phys_mb=128,
                   numa=NumaTopology(nodes=2))

    def test_odfork_rss_flow(self):
        run_paired(odfork_rss_flow, GOLDEN["odfork_rss"], phys_mb=128)

    def test_populate_flow(self):
        run_paired(populate_flow, GOLDEN["populate"], phys_mb=64,
                   noise_sigma=0.04, seed=16)

    def test_populate_flow_swap(self):
        run_paired(populate_flow, GOLDEN["populate_swap"], phys_mb=64,
                   swap_mb=64, noise_sigma=0.04, seed=16)

    @pytest.mark.parametrize("swap_mb", [0, 64])
    def test_populate_flow_allocator_parity(self, swap_mb):
        # The batched fill keeps each slot's allocator calls in the
        # per-slot order; a reordering would hand out other frames.
        _assert_same_layout(populate_flow, phys_mb=64, swap_mb=swap_mb)

    def test_smp_flow(self):
        run_paired(smp_flow, GOLDEN["smp"], phys_mb=128, smp=2,
                   noise_sigma=0.04, seed=17)

    def test_smp_flow_allocator_parity(self):
        # Fork and exit keep their buddy calls per slot and their leaf
        # tables' packed rows in the per-slot order.
        _assert_same_layout(smp_flow, phys_mb=128, smp=2)

    def test_overcommit_flow(self):
        run_paired(overcommit_flow, GOLDEN["overcommit"], phys_mb=16,
                   swap_mb=64, noise_sigma=0.04, seed=21)

    def test_overcommit_flow_allocator_parity(self):
        # Faults, reclaim and exit swap releases hand out and free the
        # pinned frames in the pinned order, on both paths.
        layout = _assert_same_layout(overcommit_flow, phys_mb=16, swap_mb=64)
        assert layout == LAYOUT_GOLDEN["overcommit"]

    def test_swap_exit_flow(self):
        run_paired(swap_exit_flow, GOLDEN["swap_exit"], phys_mb=16,
                   swap_mb=64, noise_sigma=0.04, seed=22)

    def test_swap_exit_flow_allocator_parity(self):
        # The exit frees each cached frame at its slot's release, after
        # the buddy frees of the tables before the one holding the slot's
        # last reference and before the ones after it.
        layout = _assert_same_layout(swap_exit_flow, phys_mb=16, swap_mb=64)
        assert layout == LAYOUT_GOLDEN["swap_exit"]


def _assert_same_layout(scenario, **machine_kwargs):
    """Run ``scenario`` on a fast and a per-event machine; the one
    ``physical_layout`` both end with."""
    layouts = set()
    for fastpath in (True, False):
        machine = Machine(fastpath=fastpath, **machine_kwargs)
        scenario(machine)
        layouts.add(physical_layout(machine))
    assert len(layouts) == 1
    return layouts.pop()


@pytest.fixture
def share_wakeups(monkeypatch):
    """Kswapd wakeups seen at each PMD table odfork shares."""
    import repro.kernel.odfork as odfork
    seen = []
    share = odfork.share_pmd_entries

    def spy(kernel, *args, **kwargs):
        seen.append(kernel.stats.kswapd_wakeups)
        return share(kernel, *args, **kwargs)

    monkeypatch.setattr(odfork, "share_pmd_entries", spy)
    return seen


def _walked_rss(process):
    return sum(vma["rss_bytes"] for vma in process.smaps())


class TestOdforkRss:
    """An odfork child's RSS is what its shared tables map."""

    def test_copied_when_headroom_holds(self):
        machine = Machine(phys_mb=64)
        parent = machine.spawn_process("parent")
        addr = parent.mmap(GIB + 4 * MIB)
        parent.touch_range(addr, 2 * MIB, write=True)
        parent.touch_range(addr + GIB, 2 * MIB, write=True)
        child = parent.odfork("child")
        assert child.rss_bytes == parent.rss_bytes == _walked_rss(child)

    def test_reference_path_counts(self):
        machine = Machine(phys_mb=64, fastpath=False)
        parent = machine.spawn_process("parent")
        addr = parent.mmap(4 * MIB)
        parent.touch_range(addr, 4 * MIB, write=True)
        child = parent.odfork("child")
        assert child.rss_bytes == parent.rss_bytes == _walked_rss(child)

    def test_counted_when_kswapd_runs_mid_copy(self, share_wakeups):
        machine = Machine(phys_mb=32, swap_mb=64)
        kernel = machine.kernel
        wm_low = kernel.reclaim.wm_low
        parent = machine.spawn_process("parent")
        # One touched slot in each of four GiB: the child needs a PUD
        # and a PMD table per GiB, so the copy allocates as it goes.
        big = parent.mmap(4 * GIB)
        for i in range(4):
            parent.touch_range(big + i * GIB, 256 * 1024, write=True)
        filler = parent.mmap(64 * MIB)
        page = 0
        while kernel.allocator.free_frames > wm_low + 3:
            parent.touch_range(filler + page * 4096, 4096, write=True)
            page += 1
        assert kernel.stats.kswapd_wakeups == 0
        child = parent.odfork("child")
        # The copy's table allocations woke kswapd between the first and
        # the last table share, so it swapped out pages of tables the
        # child already shared.
        assert share_wakeups[0] == 0 and share_wakeups[-1] == 1
        assert machine.vmstat()["pswpout"] > 0
        assert child.rss_bytes == _walked_rss(child)
        audit_machine(machine)


class TestEngagementPredicate:
    def test_env_var_forces_per_event(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        machine = Machine(phys_mb=64)
        assert machine.kernel.fastpath is False

    def test_knob_defaults_on(self):
        machine = Machine(phys_mb=64)
        assert machine.kernel.fastpath is True

    def test_tracing_disengages(self):
        from repro.kernel.fastpath import fast_path_ok
        from repro.trace import points
        from repro.trace.tracer import Tracer

        machine = Machine(phys_mb=64)
        assert fast_path_ok(machine.kernel)
        prev = points.current()
        points.attach(Tracer())
        try:
            assert not fast_path_ok(machine.kernel)
        finally:
            points.detach()
            if prev is not None:
                points.attach(prev)

    def test_armed_failpoints_disengage(self):
        from repro.kernel.fastpath import fast_path_ok

        machine = Machine(phys_mb=64)
        machine.kernel.failpoints.arm("fork.copy_slot", 1)
        try:
            assert not fast_path_ok(machine.kernel)
        finally:
            machine.kernel.failpoints.disarm()
        assert fast_path_ok(machine.kernel)


class TestEngagementCounters:
    """The ``fastpath`` metrics namespace counts which path ran."""

    @staticmethod
    def _script(machine):
        parent = machine.spawn_process("parent")
        addr = parent.mmap(8 * MIB)
        parent.touch_range(addr, 8 * MIB, write=True)   # 4 slots
        parent.fork("child").exit()                     # 1 fork, 1 table
        parent.odfork("sibling").exit()                 # 1 odfork, 1 table
        return machine.metrics.collect("fastpath")

    def test_scripted_counts(self):
        assert self._script(Machine(phys_mb=64)) == {
            "fill_engaged": 4, "fork_engaged": 1, "exit_engaged": 2,
        }

    def test_reference_machine_never_engages(self):
        assert self._script(Machine(phys_mb=64, fastpath=False)) == {
            "fill_engaged": 0, "fork_engaged": 0, "exit_engaged": 0,
            "fill_bailed.disabled": 4, "fork_bailed.disabled": 1,
            "exit_bailed.disabled": 2,
        }

    def test_counters_stay_out_of_vmstat(self):
        machine = Machine(phys_mb=64)
        self._script(machine)
        assert not any("engaged" in key or "bailed" in key
                       for key in machine.vmstat())

    @pytest.mark.parametrize("reason", ["tracing", "smp", "sanitizer",
                                        "failpoints", "numa"])
    def test_refusal_reason_names_the_conjunct(self, reason):
        from repro.numa.topology import NumaTopology
        from repro.trace import recording

        kwargs = {"smp": {"smp": 1}, "sanitizer": {"sanitize": "kasan"},
                  "numa": {"numa": NumaTopology(nodes=2)}}.get(reason, {})
        machine = Machine(phys_mb=64, **kwargs)
        proc = machine.spawn_process("p")
        addr = proc.mmap(4 * MIB)
        if reason == "failpoints":
            machine.kernel.failpoints.record()
        if reason == "tracing":
            with recording(machine):
                proc.touch_range(addr, 4 * MIB, write=True)
        elif reason == "smp":
            # "smp" names a running scheduler: fill from a scheduled task.
            def fill():
                proc.touch_range(addr, 4 * MIB, write=True)
                yield from ()
            machine.smp.spawn("fill", fill(), mm=proc.mm)
            machine.smp.run()
        else:
            proc.touch_range(addr, 4 * MIB, write=True)
        assert machine.metrics.collect("fastpath") == {
            "fill_engaged": 0, "fork_engaged": 0, "exit_engaged": 0,
            f"fill_bailed.{reason}": 2,
        }

    def test_smp_refuses_only_while_running(self):
        # Only a running scheduler can interpose between slots: a fill,
        # fork and exit between runs engage; the same work from a
        # scheduled task refuses on "smp".
        machine = Machine(phys_mb=64, smp=2)
        proc = machine.spawn_process("p")
        idle = proc.mmap(8 * MIB)
        busy = proc.mmap(8 * MIB)

        def script(addr):
            proc.touch_range(addr, 8 * MIB, write=True)   # 4 slots
            proc.fork("child").exit()                    # 1 fork, 1 table
            proc.wait()

        def flow():
            script(busy)
            yield from ()

        script(idle)
        machine.smp.spawn("busy", flow(), mm=proc.mm)
        machine.smp.run()
        assert machine.metrics.collect("fastpath") == {
            "fill_engaged": 4, "fork_engaged": 1, "exit_engaged": 1,
            "fill_bailed.smp": 4, "fork_bailed.smp": 1, "exit_bailed.smp": 1,
        }
