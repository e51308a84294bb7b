"""End-to-end tests for the differential oracle, shrinker, and CLI glue.

The headline test proves the oracle is *able* to catch a semantic
bug: it flips ``FAULT_INJECT_SKIP_PARENT_WP`` (odfork skipping the
parent-side PMD write-protect — exactly the bug class the paper's §3.2
design prevents), watches the odfork-vs-classic pair report it (here
through the kernel audit's TLB cross-check), and checks ddmin shrinks
the failure to a handful of ops.
"""

from __future__ import annotations

import pytest

from repro.kernel import odfork
from repro.verify import (
    check_trace,
    enumerate_failpoints,
    generate_trace,
    load_trace,
    save_trace,
    shrink_trace,
)
from repro.verify.oracle import is_hard
from repro.verify.trace import TraceExecutor, make_machine


def hard_findings(trace, **kwargs):
    return [f for f in check_trace(trace, **kwargs) if is_hard(f)]


# --------------------------------------------------------------------- #
# Clean runs


def test_differential_clean_on_random_traces():
    for seed in (0, 1, 2):
        trace = generate_trace(seed)
        assert hard_findings(trace, include_smp=False) == []


def test_differential_clean_with_smp_leg():
    assert hard_findings(generate_trace(3), include_smp=True, smp=2) == []


def test_failpoint_enumeration_clean():
    findings, meta = enumerate_failpoints(generate_trace(4, n_ops=20),
                                          max_hits_per_site=2)
    assert findings == []
    assert meta["runs"] > 0
    assert "fork.copy_slot" in meta["sites"] or meta["sites"]


# --------------------------------------------------------------------- #
# The oracle catches an injected semantic bug and shrinks it


def test_oracle_catches_and_shrinks_missing_parent_wp():
    odfork.FAULT_INJECT_SKIP_PARENT_WP = True
    try:
        caught = None
        for seed in range(100, 130):
            trace = generate_trace(seed)
            hard = hard_findings(trace, include_smp=False)
            if hard:
                caught = (trace, hard[0])
                break
        assert caught is not None, "oracle missed the injected WP bug"
        trace, finding = caught
        # Trace 101 odforks explicitly, so both machines share the bug and
        # their states agree; the TLB audit still sees the parent's stale
        # writable translation once the child unshares (end-of-trace audit).
        assert seed == 101
        assert finding.pair == "odfork-vs-classic"
        assert finding.kind == "audit"
        assert finding.op_index == len(trace["ops"]) == 32
        assert "stale TLB write permission" in finding.detail

        shrunk = shrink_trace(
            trace,
            lambda t: any(is_hard(f)
                          for f in check_trace(t, include_smp=False)))
        assert len(shrunk["ops"]) <= 10
        # The minimized repro must still exhibit the divergence...
        assert hard_findings(shrunk, include_smp=False)
    finally:
        odfork.FAULT_INJECT_SKIP_PARENT_WP = False
    # ...and be clean again once the injected bug is gone.
    assert hard_findings(shrunk, include_smp=False) == []


# --------------------------------------------------------------------- #
# The equivalence leg checks allocator state


_FORK_TRACE = {"format": 1, "seed": 0, "ops": [
    {"op": "mmap", "proc": 0, "region": 0, "pages": 1024, "huge": False},
    {"op": "touch", "proc": 0, "region": 0, "lo": 0, "hi": 1024,
     "write": True},
    {"op": "fork", "proc": 0, "child": 1},
    {"op": "exit", "proc": 1},
]}


def test_equivalence_leg_reports_a_layout_divergence(monkeypatch):
    """A fast path that makes a buddy call the per-event walk does not
    moves no logical state, clock or vmstat; the layout check sees it."""
    import repro.kernel.kernel as kernel_module
    from repro.verify.oracle import check_trace_equivalence

    assert check_trace_equivalence(_FORK_TRACE, flavors=("classic",)) == []
    real = kernel_module.fast_copy_mm_classic

    def planted(kernel, parent_mm, child_mm):
        engaged = real(kernel, parent_mm, child_mm)
        if engaged:
            kernel.allocator.free(kernel.allocator.alloc(0), 0)
        return engaged

    monkeypatch.setattr(kernel_module, "fast_copy_mm_classic", planted)
    findings = check_trace_equivalence(_FORK_TRACE, flavors=("classic",))
    assert [f.kind for f in findings] == ["state", "state"]
    assert "physical layout diverges after the trace" in findings[0].detail
    assert "physical layout diverges after teardown" in findings[1].detail


# --------------------------------------------------------------------- #
# Trace mechanics


def test_trace_json_round_trip(tmp_path):
    trace = generate_trace(11)
    path = save_trace(trace, tmp_path / "t.json")
    assert load_trace(path) == trace


def test_load_trace_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 99, "ops": []}')
    with pytest.raises(ValueError):
        load_trace(path)


def test_executor_skips_dangling_references():
    """Any subsequence is a valid trace: unknown ids skip cleanly."""
    executor = TraceExecutor(make_machine(), flavor="classic")
    assert executor.execute({"op": "write", "proc": 9, "region": 0,
                             "page": 0, "val": 1}) == ("skip",)
    assert executor.execute({"op": "restore", "snap": 5}) == ("skip",)
    assert executor.execute({"op": "exit", "proc": 3}) == ("skip",)
    assert executor.execute({"op": "made-up"}) == ("skip",)
    # Ops on a live process still work after the skips.
    assert executor.execute({"op": "mmap", "proc": 0, "region": 0,
                             "pages": 2, "huge": False})[0] == "ok"


def test_executor_skips_table_moves_under_live_snapshot():
    executor = TraceExecutor(make_machine(), flavor="classic")
    executor.execute({"op": "mmap", "proc": 0, "region": 0, "pages": 2,
                      "huge": False})
    executor.execute({"op": "touch", "proc": 0, "region": 0, "lo": 0,
                      "hi": 2, "write": True})
    assert executor.execute({"op": "snapshot", "proc": 0,
                             "snap": 0}) == ("ok",)
    assert executor.execute({"op": "munmap", "proc": 0, "region": 0,
                             "lo": 0, "hi": 2}) == ("skip",)
    assert executor.execute({"op": "mremap", "proc": 0, "region": 0,
                             "new_pages": 4}) == ("skip",)
    assert executor.execute({"op": "discard", "snap": 0}) == ("ok",)
    # The restriction lifts with the snapshot.
    assert executor.execute({"op": "munmap", "proc": 0, "region": 0,
                             "lo": 0, "hi": 2}) == ("ok",)


# --------------------------------------------------------------------- #
# The kernel audit's reference and ownership checks


class TestAuditDetects:
    """``audit_machine`` recomputes page references with whole-array
    counts; each check must still name the page it catches."""

    @staticmethod
    def _filled():
        from repro import MIB, Machine
        machine = Machine(phys_mb=64)
        proc = machine.spawn_process("p")
        buf = proc.mmap(2 * MIB)
        proc.touch_range(buf, 2 * MIB, write=True)
        huge = proc.mmap_huge(2 * MIB)
        proc.touch_range(huge, 2 * MIB, write=True)
        child = proc.fork("c")
        leaf = proc.mm.get_pte_table(buf)
        pfn = int(leaf.entries.item(3) >> 12)
        return machine, proc, child, pfn

    def test_clean_machine_passes(self):
        from repro.verify import audit_machine
        machine, *_ = self._filled()
        audit_machine(machine)

    def test_extra_reference_is_reported(self):
        from repro.verify import audit_machine
        machine, _, _, pfn = self._filled()
        machine.pages.ref_inc(pfn)
        with pytest.raises(AssertionError,
                           match=f"page {pfn}: refcount 3, 2 references"):
            audit_machine(machine)

    def test_unreachable_page_is_a_leak(self):
        from repro.mem.page import PG_ANON
        from repro.verify import audit_machine
        machine, *_ = self._filled()
        stray = int(machine.allocator.alloc(0))
        machine.pages.on_alloc(stray, PG_ANON)
        with pytest.raises(AssertionError,
                           match=f"page {stray} live \\(ref=1\\) but "
                                 f"unreachable: leak"):
            audit_machine(machine)

    def test_unregistered_table_frame_is_reported(self):
        from repro.mem.page import PG_PAGETABLE
        from repro.verify import audit_machine
        machine, *_ = self._filled()
        stray = int(machine.allocator.alloc(0))
        machine.pages.on_alloc(stray, PG_PAGETABLE)
        with pytest.raises(AssertionError,
                           match=f"table frame {stray} not registered"):
            audit_machine(machine)

    def test_extra_sharer_is_reported(self):
        from repro.verify import audit_machine
        machine, proc, child, _ = self._filled()
        [(_pmd, _index, leaf)] = proc.mm.leaf_tables()
        leaf.sharers.append(child.mm)
        with pytest.raises(AssertionError,
                           match=f"sharers of leaf {leaf.pfn}: 2 "
                                 f"registered, 1 referencing mms found"):
            audit_machine(machine)

    def test_missing_sharer_is_reported(self):
        from repro.verify import audit_machine
        machine, proc, _, _ = self._filled()
        [(_pmd, _index, leaf)] = proc.mm.leaf_tables()
        leaf.sharers.remove(proc.mm)
        with pytest.raises(AssertionError,
                           match=f"sharers of leaf {leaf.pfn}: 0 "
                                 f"registered, 1 referencing mms found"):
            audit_machine(machine)

    def test_entry_outside_every_vma_is_reported(self):
        from repro import MIB
        from repro.verify import audit_machine
        machine, proc, _, _ = self._filled()
        vma = next(iter(proc.mm.vmas))      # the touched 2 MiB buffer
        assert not vma.is_hugetlb
        proc.mm.remove_vma(vma)
        proc.mm.add_vma(vma.clone(end=vma.end - MIB))
        with pytest.raises(AssertionError,
                           match=f"entry at {vma.end - MIB:#x} outside "
                                 f"every VMA"):
            audit_machine(machine)

    @staticmethod
    def _swap_process():
        from repro import Machine
        machine = Machine(phys_mb=64, swap_mb=16)
        return machine, machine.spawn_process("p")

    def test_leaf_table_missing_from_its_rmap_family_is_reported(self):
        from repro import MIB
        from repro.verify import audit_machine
        machine, proc = self._swap_process()
        # A shared mapping's pages live in the page cache, outside the
        # rmap, so no page loses its home when the table leaves.
        buf = proc.mmap_shared(2 * MIB)
        proc.touch_range(buf, 2 * MIB, write=True)
        audit_machine(machine)
        leaf = proc.mm.get_pte_table(buf)
        del machine.kernel.rmap.members[leaf.family][leaf.pfn]
        with pytest.raises(AssertionError,
                           match="rmap families do not cover exactly the "
                                 "live leaf tables"):
            audit_machine(machine)

    def test_rmap_family_listing_a_freed_table_is_reported(self):
        from repro import MIB
        from repro.verify import audit_machine
        machine, proc = self._swap_process()
        buf = proc.mmap(4 * MIB)
        proc.touch_range(buf, 4 * MIB, write=True)
        leaf = proc.mm.get_pte_table(buf + 2 * MIB)
        family = leaf.family
        proc.munmap(buf + 2 * MIB, 2 * MIB)
        assert leaf.pfn not in machine.kernel.rmap.members.get(family, {})
        audit_machine(machine)
        machine.kernel.rmap.members.setdefault(family, {})[leaf.pfn] = leaf
        with pytest.raises(AssertionError,
                           match="rmap families do not cover exactly the "
                                 "live leaf tables"):
            audit_machine(machine)

    def test_allocation_over_a_free_block_is_reported(self):
        from repro.errors import KernelBug
        machine, *_ = self._filled()
        allocator = machine.allocator
        free_head = next(iter(allocator._free_heads))
        allocator._alloc_order[free_head] = 1   # an order-0 allocation
        with pytest.raises(KernelBug,
                           match=f"allocation at {free_head} overlaps"):
            allocator.check_consistency()
