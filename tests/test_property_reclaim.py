"""Property tests for reclaim & swap under random mmap/fork/write traffic.

Random operation scripts interleave page writes, forks, reclaim passes
(both kswapd-style and direct), partial unmaps, child mremaps, and child
exits on a machine small enough that swap traffic is routine.  After
every step the shadow copies must read back exactly and the full kernel
audit — page refcounts, swap_map, rmap, LRU membership, sharer registry —
must hold.  A child mremap moves the child's PTEs (and swap entries) into
tables of the same rmap family at the same indices, so pages shared with
the parent keep the one home the reverse lookup reads.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro import MIB, Machine
from repro.verify.audit import audit_machine

REGION = 2 * MIB
PAGE = 4096
N_PAGES = REGION // PAGE

ops = st.lists(
    st.tuples(
        st.sampled_from(["write_parent", "write_child", "read_parent",
                         "read_child", "reclaim", "kswapd", "fork",
                         "odfork", "exit_child", "unmap_piece",
                         "mremap_child", "snapshot", "restore"]),
        st.integers(0, N_PAGES - 1),
    ),
    min_size=4, max_size=24,
)


@settings(max_examples=35, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(script=ops)
def test_reclaim_interleaved_with_lineages(script):
    # Small enough that reclaim targets hit mapped pages; big enough that
    # page tables and the page cache always fit.
    machine = Machine(phys_mb=8, swap_mb=16)
    kernel = machine.kernel
    parent = machine.spawn_process("root")
    region = parent.mmap(REGION)
    parent.mmap(PAGE)       # a neighbour, so that growing region must move it
    # A populated head: a child forked early shares these pages, so a
    # child mremap moves PTEs of pages the parent still maps.
    parent.touch_range(region, REGION // 4, write=True)

    shadow_parent = {page: bytes(8) for page in range(N_PAGES // 4)}
    shadow_child = None
    child = None
    child_region = child_size = None
    snapshot = None
    snapshot_shadow = None
    unmapped = set()
    counter = 0

    for op, page in script:
        counter += 1
        payload = f"{counter:08d}".encode()
        addr = region + page * PAGE
        if op == "write_parent":
            if page in unmapped:
                continue
            parent.write(addr, payload)
            shadow_parent[page] = payload
        elif op == "write_child" and child is not None:
            if page in unmapped:
                continue
            child.write(child_region + page * PAGE, payload)
            shadow_child[page] = payload
        elif op == "read_parent" and page not in unmapped:
            expected = shadow_parent.get(page)
            if expected is not None:
                assert parent.read(addr, 8) == expected
        elif op == "read_child" and child is not None and page not in unmapped:
            expected = shadow_child.get(page)
            if expected is not None:
                assert child.read(child_region + page * PAGE, 8) == expected
        elif op == "reclaim":
            kernel.reclaim.shrink(max(8, page), from_kswapd=False)
        elif op == "kswapd":
            machine.run_kswapd()
        elif op in ("fork", "odfork") and child is None:
            child = parent.odfork() if op == "odfork" else parent.fork()
            shadow_child = dict(shadow_parent)
            child_region, child_size = region, REGION
        elif op == "exit_child" and child is not None:
            child.exit()
            parent.wait()
            child = None
            shadow_child = None
        elif op == "mremap_child" and child is not None and not unmapped:
            # Grow by a page: the first grow has to move the mapping.
            child_region = child.mremap(child_region, child_size,
                                        child_size + PAGE)
            child_size += PAGE
        elif op == "unmap_piece" and child is None and page not in unmapped:
            parent.munmap(addr, PAGE)
            unmapped.add(page)
            shadow_parent.pop(page, None)
        elif op == "snapshot" and child is None and snapshot is None:
            snapshot = parent.snapshot()
            snapshot_shadow = dict(shadow_parent)
        elif (op == "restore" and snapshot is not None and child is None
              and not unmapped):
            # munmap can free a snapshotted leaf table; only restore while
            # the geometry is unchanged since creation.
            snapshot.restore()
            shadow_parent = dict(snapshot_shadow)

        audit_machine(machine)

    for page, expected in shadow_parent.items():
        assert parent.read(region + page * PAGE, 8) == expected
    if child is not None:
        for page, expected in shadow_child.items():
            assert child.read(child_region + page * PAGE, 8) == expected
        child.exit()
        parent.wait()
    if snapshot is not None:
        snapshot.discard()
    audit_machine(machine)
    parent.exit()
    machine.init_process.wait()
    audit_machine(machine)
    assert kernel.swap.used_slots == 0
    assert len(kernel.swap_cache) == 0
    assert len(kernel.reclaim.active) + len(kernel.reclaim.inactive) == 0
