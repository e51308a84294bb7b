"""NUMA memory subsystem: topology, zones, policies, migration, costs.

Covers the non-replication half of the NUMA model (MECHANISM.md §15):
validated :class:`NumaTopology` configuration, the per-node buddy zones
behind :class:`NumaAllocator` with zonelist fallback, the three
mempolicies, ``migrate_pages``, distance-weighted access charging, and
the ``numa.node_alloc`` failpoint's clean-OOM contract.  Replication
lives in test_mitosis.py.
"""

from __future__ import annotations

import pytest

from repro import MIB, Machine, OutOfMemoryError
from repro.errors import ConfigurationError, InvalidArgumentError
from repro.mem.buddy import MAX_ORDER, OutOfFramesError
from repro.mem.page import PAGE_SIZE
from repro.paging.table import PMD_REGION_SIZE
from repro.numa import (
    POLICY_BIND,
    POLICY_FIRST_TOUCH,
    POLICY_INTERLEAVE,
    MemPolicy,
    NumaAllocator,
    NumaTopology,
)
from repro.timing.costs import FN_NUMA_ACCESS
from repro.verify.audit import audit_machine


def numa_machine(nodes=2, phys_mb=128, **topo):
    return Machine(phys_mb=phys_mb, numa=NumaTopology(nodes=nodes, **topo))


def node_used(machine):
    return list(machine.allocator.node_used_frames())


# --------------------------------------------------------------------- #
# Topology validation


class TestTopology:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=0)

    def test_distance_matrix_must_be_square(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=2, distance=[[10, 20]])

    def test_distance_matrix_must_be_symmetric(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=2, distance=[[10, 20], [30, 10]])

    def test_remote_distance_below_local_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=2, distance=[[10, 5], [5, 10]])

    def test_bind_cannot_be_the_default_policy(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=2, default_policy=POLICY_BIND)

    def test_unknown_replica_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=2, replicate=True,
                         odfork_replica_policy="share-some")

    def test_factor_is_zero_local_one_at_double_distance(self):
        topo = NumaTopology(nodes=2)
        assert topo.factor(0, 0) == 0.0
        assert topo.factor(0, 1) == 1.0

    def test_fallback_order_is_nearest_first(self):
        # Node 1 is distance 15 from node 0; node 2 is 30.
        topo = NumaTopology(nodes=3, distance=[[10, 15, 30],
                                               [15, 10, 30],
                                               [30, 30, 10]])
        assert topo.fallback[0] == [0, 1, 2]
        assert topo.fallback[2] == [2, 0, 1]


# --------------------------------------------------------------------- #
# Per-node zones


class TestZones:
    def test_zones_partition_the_frame_range(self):
        allocator = NumaAllocator(4096, NumaTopology(nodes=3))
        spans = sum(zone.n_frames for zone in allocator.zones)
        assert spans == allocator.n_frames
        for node, base in enumerate(allocator.bases):
            assert allocator.node_of(base) == node
            top = base + allocator.zones[node].n_frames - 1
            assert allocator.node_of(top) == node

    def test_zone_below_one_buddy_block_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaAllocator((1 << MAX_ORDER), NumaTopology(nodes=2))

    def test_alloc_prefers_the_requested_node(self):
        allocator = NumaAllocator(2048, NumaTopology(nodes=2))
        pfn = allocator.alloc(0, node=1)
        assert allocator.node_of(pfn) == 1
        assert allocator.numa_hit == 1
        assert allocator.numa_fallback == 0

    def test_exhausted_node_falls_back_by_distance(self):
        allocator = NumaAllocator(2048, NumaTopology(nodes=2))
        while allocator.zones[0].free_frames:
            allocator.alloc(0, node=0)
        pfn = allocator.alloc(0, node=0)
        assert allocator.node_of(pfn) == 1
        assert allocator.numa_fallback == 1

    def test_strict_alloc_refuses_to_spill(self):
        allocator = NumaAllocator(2048, NumaTopology(nodes=2))
        while allocator.zones[0].free_frames:
            allocator.alloc(0, node=0)
        with pytest.raises(OutOfFramesError):
            allocator.alloc(0, node=0, strict=True)

    def test_bulk_interleave_stripes_across_nodes(self):
        allocator = NumaAllocator(2048, NumaTopology(nodes=2))
        pfns = allocator.alloc_bulk(64, interleave=True)
        nodes = allocator.node_of_bulk(pfns)
        assert (nodes == 0).sum() == 32
        assert (nodes == 1).sum() == 32


# --------------------------------------------------------------------- #
# Machine-level placement policies


class TestPolicies:
    def test_first_touch_places_on_the_faulting_node(self):
        machine = numa_machine()
        p = machine.spawn_process("ft")
        buf = p.mmap(2 * MIB)
        before = node_used(machine)
        with machine.kernel.pin_to_node(1):
            p.touch_range(buf, 2 * MIB, write=True)
        grew = [b - a for a, b in zip(before, node_used(machine))]
        # Data frames land on node 1; only stray table frames may not.
        assert grew[1] > 2 * MIB // PAGE_SIZE // 2
        assert grew[1] > 4 * grew[0]

    def test_bind_policy_places_strictly(self):
        machine = numa_machine()
        p = machine.spawn_process("bind")
        machine.kernel.sys_set_mempolicy(p.task, POLICY_BIND, node=1)
        buf = p.mmap(1 * MIB)
        before = node_used(machine)
        p.touch_range(buf, 1 * MIB, write=True)
        grew = [b - a for a, b in zip(before, node_used(machine))]
        assert grew[1] >= 1 * MIB // PAGE_SIZE

    def test_interleave_policy_spreads_single_faults(self):
        machine = numa_machine()
        p = machine.spawn_process("il")
        machine.kernel.sys_set_mempolicy(p.task, POLICY_INTERLEAVE)
        buf = p.mmap(1 * MIB)
        before = node_used(machine)
        for i in range(0, 1 * MIB, PAGE_SIZE):
            p.touch(buf + i, write=True)
        grew = [b - a for a, b in zip(before, node_used(machine))]
        pages = 1 * MIB // PAGE_SIZE
        assert abs(grew[0] - grew[1]) <= pages // 4

    def test_set_mempolicy_validates_the_node(self):
        machine = numa_machine()
        p = machine.spawn_process("p")
        with pytest.raises(InvalidArgumentError):
            machine.kernel.sys_set_mempolicy(p.task, POLICY_BIND, node=2)

    def test_set_mempolicy_needs_a_numa_machine(self):
        machine = Machine(phys_mb=64)
        p = machine.spawn_process("p")
        with pytest.raises(InvalidArgumentError):
            machine.kernel.sys_set_mempolicy(p.task, POLICY_INTERLEAVE)

    def test_mempolicy_is_inherited_but_not_shared_across_fork(self):
        machine = numa_machine()
        p = machine.spawn_process("p")
        machine.kernel.sys_set_mempolicy(p.task, POLICY_INTERLEAVE)
        child = p.fork()
        assert child.mm.mempolicy.mode == POLICY_INTERLEAVE
        assert child.mm.mempolicy is not p.mm.mempolicy

    def test_mempolicy_rejects_bind_without_node(self):
        with pytest.raises(ConfigurationError):
            MemPolicy(POLICY_BIND)

    def test_default_policy_first_touch_means_no_policy_object(self):
        machine = numa_machine()
        p = machine.spawn_process("p")
        assert machine.numa.default_policy == POLICY_FIRST_TOUCH
        assert p.mm.mempolicy is None


# --------------------------------------------------------------------- #
# migrate_pages


class TestMigratePages:
    def test_moves_private_pages_and_preserves_content(self):
        machine = numa_machine()
        p = machine.spawn_process("mig")
        buf = p.mmap(1 * MIB)
        with machine.kernel.pin_to_node(0):
            p.touch_range(buf, 1 * MIB, write=True)
        p.write(buf + 123, b"migrate-me")
        moved = machine.kernel.sys_migrate_pages(p.task, 1)
        assert moved >= 1 * MIB // PAGE_SIZE
        assert machine.kernel.stats.pages_migrated >= moved
        assert p.read(buf + 123, 10) == b"migrate-me"
        audit_machine(machine)

    def test_skips_pages_shared_with_a_fork_child(self):
        machine = numa_machine()
        p = machine.spawn_process("mig")
        buf = p.mmap(1 * MIB)
        with machine.kernel.pin_to_node(0):
            p.touch_range(buf, 1 * MIB, write=True)
        child = p.fork()   # COW-shares every frame
        assert machine.kernel.sys_migrate_pages(p.task, 1) == 0
        child.exit()
        p.wait()
        audit_machine(machine)

    def test_validates_the_target_node(self):
        machine = numa_machine()
        p = machine.spawn_process("p")
        with pytest.raises(InvalidArgumentError):
            machine.kernel.sys_migrate_pages(p.task, 9)


# --------------------------------------------------------------------- #
# Distance-weighted access costs


class TestDistanceCharging:
    def _cold_pass(self, machine, p, buf, pages, node):
        machine.kernel.active_tlb(p.mm).flush_all()
        with machine.kernel.pin_to_node(node):
            start = machine.clock.now_ns
            for i in range(pages):
                p.touch(buf + i * PAGE_SIZE, PAGE_SIZE)
            return machine.clock.now_ns - start

    def test_remote_access_costs_more_than_local(self):
        machine = numa_machine()
        p = machine.spawn_process("cost")
        buf = p.mmap(1 * MIB)
        with machine.kernel.pin_to_node(0):
            p.touch_range(buf, 1 * MIB, write=True)
        pages = 1 * MIB // PAGE_SIZE
        local = self._cold_pass(machine, p, buf, pages, 0)
        remote = self._cold_pass(machine, p, buf, pages, 1)
        assert remote > local
        assert machine.kernel.stats.numa_remote_accesses >= pages

    def test_smp_access_flow_charges_like_mem_touch(self):
        """Reads of node-1 pages from a node-0 CPU pay one remote access
        per page whether the SMP access flow or ``mem_touch`` makes them:
        both go through the kernel's one translate/fault loop."""
        from repro.smp import ops
        n_pages = 64
        remote = {}
        for label in ("smp", "mem_touch"):
            machine = Machine(phys_mb=128, smp=2, numa=NumaTopology(nodes=2))
            p = machine.spawn_process("p")
            buf = p.mmap(n_pages * PAGE_SIZE)
            with machine.kernel.pin_to_node(1):
                p.touch_range(buf, n_pages * PAGE_SIZE, write=True)
            machine.kernel.active_tlb(p.mm).flush_all()
            before = machine.kernel.stats.numa_remote_accesses
            if label == "smp":
                machine.smp.spawn("read", ops.access_flow(
                    machine.smp, p, buf, n_pages * PAGE_SIZE, is_write=False),
                    mm=p.mm, vcpu=0)
                machine.smp.run()
            else:
                p.touch(buf, n_pages * PAGE_SIZE)
            remote[label] = machine.kernel.stats.numa_remote_accesses - before
        assert remote == {"smp": n_pages, "mem_touch": n_pages}

    @pytest.mark.parametrize("flavour", ["fork", "odfork"])
    def test_bulk_cow_charges_remote_copies_like_per_page(self, flavour):
        """A child's COW of node-1 pages from a node-0 CPU pays one remote
        copy per page, in count and in time, whether ``touch_range`` or a
        per-page ``touch`` loop makes the writes.  After odfork the child
        also copies each shared leaf table, one remote copy per 2 MiB
        slot (classic fork paid for its table copies at fork time)."""
        size = 4 * MIB
        charged = {}
        for path in ("touch_range", "touch"):
            machine = Machine(phys_mb=256, numa=NumaTopology(nodes=2))
            p = machine.spawn_process("p")
            buf = p.mmap(size)
            with machine.kernel.pin_to_node(1):
                p.touch_range(buf, size, write=True)
            child = p.odfork() if flavour == "odfork" else p.fork()
            stats, profiler = machine.kernel.stats, machine.profiler

            def remote():
                return (stats.numa_remote_accesses,
                        profiler.breakdown([FN_NUMA_ACCESS])[FN_NUMA_ACCESS])

            before = remote()
            if path == "touch_range":
                child.touch_range(buf, size, write=True)
            else:
                for page in range(size // PAGE_SIZE):
                    child.touch(buf + page * PAGE_SIZE, 1, write=True)
            charged[path] = tuple(a - b for a, b in zip(remote(), before))
        assert charged["touch_range"] == charged["touch"]
        table_copies = size // PMD_REGION_SIZE if flavour == "odfork" else 0
        assert charged["touch"][0] == size // PAGE_SIZE + table_copies

    def test_flat_machine_charges_no_numa_penalty(self):
        machine = Machine(phys_mb=64)
        p = machine.spawn_process("flat")
        buf = p.mmap(1 * MIB)
        p.touch_range(buf, 1 * MIB, write=True)
        assert machine.kernel.stats.numa_remote_accesses == 0


# --------------------------------------------------------------------- #
# Metrics and the vCPU home-node wiring


class TestIntegration:
    def test_numa_metrics_namespace(self):
        machine = numa_machine()
        snap = machine.metrics.snapshot()
        assert snap["numa.nodes"] == 2
        assert "numa.node0_used" in snap and "numa.node1_free" in snap

    def test_flat_machine_has_empty_numa_namespace(self):
        snap = Machine(phys_mb=64).metrics.snapshot()
        assert not any(k.startswith("numa.") for k in snap)

    def test_pin_to_node_validates_range(self):
        machine = numa_machine()
        with pytest.raises(InvalidArgumentError):
            with machine.kernel.pin_to_node(5):
                pass

    def test_current_node_is_zero_without_numa(self):
        machine = Machine(phys_mb=64)
        assert machine.kernel.current_node() == 0


# --------------------------------------------------------------------- #
# numa.node_alloc failpoint: per-node allocation failure surfaces cleanly


class TestNodeAllocFailpoint:
    def test_armed_fault_surfaces_clean_oom(self):
        machine = numa_machine()
        p = machine.spawn_process("fp")
        buf = p.mmap(1 * MIB)
        # Build the table chain first so the armed fault fails only the
        # data-frame allocation (empty tables legitimately stay behind).
        p.touch(buf + PAGE_SIZE, write=True)
        frames_before = machine.used_frames()
        machine.kernel.failpoints.arm("numa.node_alloc", nth=1)
        with pytest.raises(OutOfMemoryError):
            p.touch(buf, write=True)
        assert machine.used_frames() == frames_before
        audit_machine(machine)
        # Armed shots are one-time: the retry faults the page in fine.
        p.touch(buf, write=True)
        audit_machine(machine)

    def test_armed_migrate_stops_but_keeps_progress(self):
        machine = numa_machine()
        p = machine.spawn_process("fp-mig")
        buf = p.mmap(64 * PAGE_SIZE)
        with machine.kernel.pin_to_node(0):
            p.touch_range(buf, 64 * PAGE_SIZE, write=True)
        # Fail the 4th target-node allocation: three pages moved, then
        # the sweep stops rather than unwinding or corrupting.
        machine.kernel.failpoints.arm("numa.node_alloc", nth=4)
        moved = machine.kernel.sys_migrate_pages(p.task, 1)
        assert moved == 3
        audit_machine(machine)
        # A second sweep finishes the job.
        assert machine.kernel.sys_migrate_pages(p.task, 1) == 64 - 3
        audit_machine(machine)
