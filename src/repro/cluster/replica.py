"""One fleet member: a faithful single-machine simulator behind a NIC.

The network layer above is analytic, but each replica keeps the *real*
mechanism: a full :class:`~repro.core.machine.Machine` running a
:class:`~repro.apps.kvstore.KVStore`, so fork blocks, table-COW faults
and the post-snapshot write burst all come from the paging model, not
from constants.  The replica's machine clock is slaved to fleet time —
``advance_to`` before every service or snapshot — so per-replica Perfetto
tracks line up with the gateway track and background deadlines (snapshot
children serialising) expire at realistic fleet times.
"""

from __future__ import annotations

from collections import deque

from ..apps.kvstore import KVStore
from ..core.machine import Machine
from ..trace import points


class Replica:
    """A Machine + KVStore pair with fleet-time service accounting."""

    def __init__(self, index, data_mb=64, value_bytes=1024, phys_mb=None,
                 use_odfork=False, serialize_ms=450.0, seed=0):
        self.index = index
        self.name = f"replica{index}"
        if phys_mb is None:
            # Headroom for COW bursts while snapshot children are alive.
            phys_mb = max(128, int(data_mb * 4))
        self.machine = Machine(phys_mb=phys_mb, seed=seed + index)
        self.store = KVStore(self.machine, data_mb=data_mb,
                             value_bytes=value_bytes,
                             use_odfork=use_odfork,
                             serialize_ms=serialize_ms,
                             seed=seed + index, name=self.name)
        # Snapshots are fleet-coordinated, never store-triggered.
        self.store.save_enabled = False
        self.ready_at_ns = 0          # fleet time the server next frees
        self.served = 0
        self.snapshots = 0
        self._completions = deque()   # fleet-time completion stamps

    # ---- data plane ------------------------------------------------------

    def queue_len(self, now_ns):
        """Requests assigned but not yet completed at fleet time ``now``."""
        pending = self._completions
        while pending and pending[0] <= now_ns:
            pending.popleft()
        return len(pending)

    def serve(self, key, write, start_ns):
        """Serve one request starting at fleet time ``start_ns``.

        Returns the service time (ns) measured off the machine clock —
        command dispatch plus whatever faults the touch takes (COW after a
        classic fork, table-copy-then-COW after an odfork).
        """
        if points.enabled:
            tracer = points.current()
            if tracer is not None:
                tracer.bind(self.machine)
        clock = self.machine.clock
        clock.advance_to(start_ns)
        before = clock.now_ns
        if write:
            self.store.handle_set(key)
        else:
            self.store.handle_get(key)
        service_ns = clock.now_ns - before
        end_ns = start_ns + service_ns
        self.ready_at_ns = end_ns
        self._completions.append(end_ns)
        self.served += 1
        return service_ns

    # ---- snapshot plane --------------------------------------------------

    def snapshot(self, at_ns):
        """Fork a snapshot child at fleet time ``at_ns``; returns the block.

        The returned duration is the fork *invocation* block — the window
        the server cannot serve — straight from the machine clock (reaping
        earlier children runs off-CPU and charges nothing).
        """
        if points.enabled:
            tracer = points.current()
            if tracer is not None:
                tracer.bind(self.machine)
        clock = self.machine.clock
        clock.advance_to(at_ns)
        before = clock.now_ns
        self.store.snapshot()
        block_ns = clock.now_ns - before
        end_ns = at_ns + block_ns
        self.ready_at_ns = max(self.ready_at_ns, end_ns)
        self.snapshots += 1
        return block_ns

    # ---- lifecycle -------------------------------------------------------

    @property
    def live_children(self):
        """Snapshot children not yet reaped (0 after a clean shutdown)."""
        return len(self.store._snapshot_children)

    def shutdown(self):
        """Reap outstanding snapshot children and exit the server."""
        self.store.shutdown()

    def info(self):
        """Per-replica report row material."""
        return {
            "name": self.name,
            "served": self.served,
            "snapshots": self.snapshots,
            "fork_ns_samples": list(self.store.fork_ns_samples),
            "rss_bytes": self.store.proc.rss_bytes,
        }
