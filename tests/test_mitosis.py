"""Mitosis-style page-table replication: lifecycle, policies, unwind.

The replication half of MECHANISM.md §15: per-node replica frames for
every table, the ``fanout_write`` coherence charge, walk entitlement
under each ``odfork_replica_policy``, ownership adoption at table-COW,
collapse at free/exit, and the ``mitosis.replica_alloc`` failpoint's
best-effort-unwind contract (an OOM mid-replication leaves the table
unreplicated and leaks nothing).
"""

from __future__ import annotations

import pytest

from repro import MIB, Machine
from repro.mem.page import PAGE_SIZE, PG_PAGETABLE
from repro.numa import REPLICA_POLICIES, NumaTopology
from repro.verify.audit import audit_machine


def replicated_machine(policy="share-one", nodes=2, phys_mb=128):
    return Machine(phys_mb=phys_mb,
                   numa=NumaTopology(nodes=nodes, replicate=True,
                                     odfork_replica_policy=policy))


def leaf_pfns(process):
    return {leaf.pfn for _pmd, _idx, leaf in process.mm.leaf_tables()}


def shared_leaf_pfns(process):
    return {leaf.pfn for _pmd, _idx, leaf in process.mm.leaf_tables()
            if len(leaf.sharers) > 1}


# --------------------------------------------------------------------- #
# Replica lifecycle


class TestLifecycle:
    def test_fresh_tables_get_one_replica_per_remote_node(self):
        machine = replicated_machine(nodes=3)
        machine.init_process   # materialise init before the baseline
        mitosis = machine.kernel.mitosis
        base = mitosis.replica_frame_count()
        p = machine.spawn_process("r")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        new_tables = [pfn for pfn in mitosis.replicas
                      if mitosis.owner.get(pfn) is p.mm]
        assert new_tables
        for pfn in new_tables:
            got = mitosis.replicas[pfn]
            home = machine.allocator.node_of(pfn)
            assert set(got) == {0, 1, 2} - {home}
            for node, rpfn in got.items():
                assert machine.allocator.node_of(rpfn) == node
                assert machine.kernel.pages.has_flags(rpfn, PG_PAGETABLE)
                assert mitosis.replica_of[rpfn] == pfn
        assert mitosis.replica_frame_count() == base + 2 * len(new_tables)
        audit_machine(machine)

    def test_exit_collapses_every_replica(self):
        machine = replicated_machine()
        machine.init_process   # materialise init before the baseline
        mitosis = machine.kernel.mitosis
        base_replicas = mitosis.replica_frame_count()
        base_frames = machine.used_frames()
        p = machine.spawn_process("r")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        collapses_before = machine.kernel.stats.replica_collapses
        p.exit()
        machine.init_process.wait()
        assert mitosis.replica_frame_count() == base_replicas
        assert machine.used_frames() == base_frames
        assert machine.kernel.stats.replica_collapses > collapses_before
        audit_machine(machine)

    def test_fanout_write_charges_coherence(self):
        machine = replicated_machine()
        p = machine.spawn_process("r")
        buf = p.mmap(1 * MIB)
        syncs_before = machine.kernel.stats.replica_syncs
        clock_before = machine.clock.now_ns
        p.touch_range(buf, 1 * MIB, write=True)
        assert machine.kernel.stats.replica_syncs > syncs_before
        assert machine.clock.now_ns > clock_before

    def test_huge_reuse_write_charges_coherence(self):
        """A hugetlb write that reuses the page in place sets RW on a
        replicated PMD entry, so it pays the fan-out like the 4 KiB
        reuse does."""
        machine = replicated_machine()
        p = machine.spawn_process("r")
        huge = p.mmap_huge(2 * MIB)
        p.write(huge, b"first")
        child = p.fork()
        child.exit()
        p.wait()
        stats = machine.kernel.stats
        reuse_before = stats.cow_reuse
        syncs_before = stats.replica_syncs
        p.write(huge, b"again")
        assert stats.cow_reuse == reuse_before + 1
        assert stats.replica_syncs > syncs_before
        audit_machine(machine)

    def test_replication_off_means_no_mitosis_state(self):
        machine = Machine(phys_mb=64, numa=NumaTopology(nodes=2))
        assert machine.kernel.mitosis is None


# --------------------------------------------------------------------- #
# Walk entitlement under each odfork replica policy


class TestReplicaPolicies:
    def test_share_one_entitles_only_the_owner(self):
        machine = replicated_machine("share-one")
        mitosis = machine.kernel.mitosis
        p = machine.spawn_process("owner")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        child = p.odfork()
        shared = shared_leaf_pfns(p) & set(mitosis.replicas)
        assert shared
        for pfn in shared:
            assert mitosis.entitled(p.mm, pfn)
            assert not mitosis.entitled(child.mm, pfn)

    def test_share_all_entitles_every_sharer(self):
        machine = replicated_machine("share-all")
        mitosis = machine.kernel.mitosis
        p = machine.spawn_process("owner")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        child = p.odfork()
        assert child.mm.replicated
        shared = shared_leaf_pfns(p) & set(mitosis.replicas)
        assert shared
        for pfn in shared:
            assert mitosis.entitled(child.mm, pfn)

    def test_collapse_frees_replicas_at_share_time(self):
        machine = replicated_machine("collapse")
        mitosis = machine.kernel.mitosis
        p = machine.spawn_process("owner")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        collapses_before = machine.kernel.stats.replica_collapses
        child = p.odfork()
        assert machine.kernel.stats.replica_collapses > collapses_before
        for pfn in shared_leaf_pfns(p):
            assert pfn not in mitosis.replicas
            assert not mitosis.entitled(p.mm, pfn)
        child.exit()
        p.wait()
        audit_machine(machine)

    def test_table_cow_copy_is_rereplicated_and_owned_by_the_writer(self):
        machine = replicated_machine("share-one")
        mitosis = machine.kernel.mitosis
        p = machine.spawn_process("owner")
        buf = p.mmap(2 * MIB)
        p.touch_range(buf, 2 * MIB, write=True)
        child = p.odfork()
        before = leaf_pfns(child)
        child.write(buf, b"cow")   # table-COW: child gets a private leaf
        private = leaf_pfns(child) - before
        assert private
        for pfn in private:
            assert mitosis.owner.get(pfn) is child.mm
            assert mitosis.entitled(child.mm, pfn)
            assert not mitosis.entitled(p.mm, pfn)

    def test_owner_walks_remote_memory_cheaper_than_non_owner(self):
        # The experiment's core asymmetry, in miniature: under share-one
        # the parent owns the shared leaves' replicas, so its remote
        # walks are local while the child pays full distance cost.
        machine = replicated_machine("share-one", phys_mb=256)
        kernel = machine.kernel
        p = machine.spawn_process("owner")
        buf = p.mmap(4 * MIB)
        p.touch_range(buf, 4 * MIB, write=True)
        child = p.odfork()
        pages = 4 * MIB // PAGE_SIZE

        def cold_pass(proc):
            kernel.active_tlb(proc.mm).flush_all()
            with kernel.pin_to_node(1):
                start = machine.clock.now_ns
                for i in range(pages):
                    proc.touch(buf + i * PAGE_SIZE, PAGE_SIZE)
                return machine.clock.now_ns - start

        assert cold_pass(p) < cold_pass(child)


# --------------------------------------------------------------------- #
# mitosis.replica_alloc failpoint: best-effort unwind


class TestReplicaAllocFailpoint:
    def test_armed_oom_leaves_table_unreplicated_without_leaking(self):
        machine = replicated_machine(nodes=3)
        machine.init_process   # materialise init before the baseline
        kernel = machine.kernel
        fallbacks_before = kernel.stats.replica_fallbacks
        frames_before = machine.used_frames()
        p = machine.spawn_process("fp")
        buf = p.mmap(64 * PAGE_SIZE)
        # nth=2 fails the *second* node's replica frame on the next
        # table allocation: the first node's already-allocated replica
        # must be unwound too.
        kernel.failpoints.arm("mitosis.replica_alloc", nth=2)
        p.write(buf, b"still works")
        assert kernel.stats.replica_fallbacks > fallbacks_before
        all_tables = ({p.mm.pgd.pfn}
                      | {t.pfn for t in p.mm.upper_tables()}
                      | leaf_pfns(p))
        unreplicated = all_tables - set(kernel.mitosis.replicas)
        assert unreplicated   # at least one table skipped replication
        assert p.read(buf, 11) == b"still works"
        audit_machine(machine)
        p.exit()
        machine.init_process.wait()
        assert machine.used_frames() == frames_before
        audit_machine(machine)

    def test_unreplicated_table_walks_at_remote_cost(self):
        machine = replicated_machine()
        kernel = machine.kernel
        kernel.failpoints.arm("mitosis.replica_alloc", nth=1)
        p = machine.spawn_process("fp")
        buf = p.mmap(16 * PAGE_SIZE)
        p.touch_range(buf, 16 * PAGE_SIZE, write=True)
        remote_before = kernel.stats.numa_remote_accesses
        kernel.active_tlb(p.mm).flush_all()
        with kernel.pin_to_node(1):
            p.touch(buf, PAGE_SIZE)
        assert kernel.stats.numa_remote_accesses > remote_before

    @pytest.mark.parametrize("policy", REPLICA_POLICIES)
    def test_odfork_after_replica_oom_stays_clean(self, policy):
        machine = replicated_machine(policy)
        machine.kernel.failpoints.arm("mitosis.replica_alloc", nth=1)
        p = machine.spawn_process("fp")
        buf = p.mmap(1 * MIB)
        p.touch_range(buf, 1 * MIB, write=True)
        child = p.odfork()
        child.write(buf, b"y")
        assert p.read(buf, 1) != b"y"
        child.exit()
        p.wait()
        p.exit()
        machine.init_process.wait()
        audit_machine(machine)


# --------------------------------------------------------------------- #
# Tracepoints


class TestTracepoints:
    def test_replication_lifecycle_emits_tracepoints(self):
        from repro.trace import points
        from repro.trace.tracer import Tracer
        tracer = Tracer()
        points.attach(tracer)
        try:
            machine = replicated_machine("collapse")
            p = machine.spawn_process("tp")
            buf = p.mmap(2 * MIB)
            p.touch_range(buf, 2 * MIB, write=True)
            child = p.odfork()
            child.exit()
            p.wait()
            p.exit()
            machine.init_process.wait()
        finally:
            points.detach()
        names = {event.name for event in tracer.drain()}
        assert "mitosis.replica_alloc" in names
        assert "mitosis.replica_sync" in names
        assert "mitosis.replica_collapse" in names
