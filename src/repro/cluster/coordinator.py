"""Rolling-snapshot scheduling: which replicas fork when, and who waits.

The paper shows (Table 4/5) that a *single* Redis server's snapshot fork
is either a multi-millisecond outage (classic fork) or a ~100 us blip
(odfork).  Fleet-wide, a second axis appears that no single-machine
benchmark can expose: the **wave strategy** — how snapshot epochs roll
across replicas:

``simultaneous``
    Every replica forks in the same epoch.  Total snapshot wall time is
    one block (longest path), but the whole fleet is unavailable at once:
    with classic fork this is the worst case for tail latency.

``staggered`` (by ``k``)
    The wave is split into sub-waves of ``k`` replicas; each sub-wave
    acquires the snapshot-epoch DLM lock in FIFO order, so at most ``k``
    replicas are blocked at any instant and the rest absorb traffic.

``drain``
    Staggered, plus the gateway fails traffic for a granted replica over
    to its ring successor until the fork completes — the block never lands
    on client requests at all, at the price of doubled load next door.

Epochs are serialized by the :class:`~repro.cluster.dlm.Dlm`: a sub-wave
holds ``snapshot-epoch`` from grant until its slowest replica's fork
returns (the longest-path rule), and the next sub-wave's grant chains
behind the release.  Once granted, a sub-wave's forks run at the earliest
instant each server frees — ahead of requests that arrive after the
grant, matching how BGSAVE fires at an event-loop boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import InvalidArgumentError
from ..trace import points

STRATEGIES = ("simultaneous", "staggered", "drain")

EPOCH_LOCK = "snapshot-epoch"


@dataclass
class SubWave:
    """One DLM-serialized batch of replica snapshots."""

    wave: int
    index: int                    # position within the wave
    sched_ns: int                 # earliest fleet time it may request
    replicas: list
    grant_ns: int = None
    blocks_ns: dict = field(default_factory=dict)

    @property
    def owner(self):
        return f"wave{self.wave}.{self.index}"


class SnapshotCoordinator:
    """Turns a wave schedule into DLM-serialized per-replica forks."""

    def __init__(self, fleet, strategy="staggered", stagger_k=1,
                 wave_interval_ms=8.0, n_waves=2):
        if strategy not in STRATEGIES:
            raise InvalidArgumentError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        if stagger_k < 1:
            raise InvalidArgumentError("stagger_k must be >= 1")
        if wave_interval_ms <= 0 or n_waves < 0:
            raise InvalidArgumentError("bad wave schedule")
        self.fleet = fleet
        self.strategy = strategy
        self.stagger_k = stagger_k
        self.wave_interval_ns = int(wave_interval_ms * 1e6)
        self.n_waves = n_waves
        self._pending = self._build_schedule()
        self._active = None
        self._last_release_ns = 0
        #: Replicas shedding traffic to a neighbour right now: the active
        #: sub-wave's, from its grant request until its forks return
        #: (always empty unless the strategy is ``drain``).
        self.draining = ()
        self.subwaves_completed = 0
        self.subwaves_skipped = 0
        self.max_block_ns = 0

    def _build_schedule(self):
        """The sub-wave queue, in the order the DLM will serve it."""
        n = len(self.fleet.replicas)
        if self.strategy == "simultaneous":
            chunk = n
        else:
            chunk = self.stagger_k
        pending = []
        for wave in range(self.n_waves):
            sched = (wave + 1) * self.wave_interval_ns
            ids = list(range(n))
            subs = [ids[i:i + chunk] for i in range(0, n, chunk)]
            for index, replicas in enumerate(subs):
                pending.append(SubWave(wave, index, sched, replicas))
        return pending

    @property
    def drains(self):
        """True when granted replicas should shed traffic to a neighbour."""
        return self.strategy == "drain"

    def pump(self, now_ns):
        """Advance the snapshot machinery up to fleet time ``now_ns``.

        Starts any sub-wave whose schedule has arrived (chaining its DLM
        grant behind the previous release) and executes the forks of the
        active sub-wave once its grant time has passed.  Called by the
        fleet loop before each arrival and once more at end of run with
        ``now_ns`` beyond every schedule point to flush stragglers.
        """
        while True:
            if self._active is None:
                if not self._pending or self._pending[0].sched_ns > now_ns:
                    return
                sub = self._pending.pop(0)
                request = max(sub.sched_ns, self._last_release_ns)
                grant = self.fleet.dlm.acquire(EPOCH_LOCK, sub.owner,
                                               request)
                if grant is None:
                    # Injected lock-master timeout: skip this epoch; the
                    # replicas simply snapshot at the next scheduled wave.
                    self.subwaves_skipped += 1
                    continue
                sub.grant_ns = grant
                self._active = sub
                if self.drains:
                    self.draining = tuple(sub.replicas)
                if self.fleet.fleet_trace(grant):
                    points.tracepoint("snap.wave_start",
                                      wave=sub.wave, sub=sub.index,
                                      n_replicas=len(sub.replicas),
                                      strategy=self.strategy)
            sub = self._active
            if sub.grant_ns > now_ns:
                return
            end_max = sub.grant_ns
            for r in sub.replicas:
                replica = self.fleet.replicas[r]
                start = max(sub.grant_ns, replica.ready_at_ns)
                block = replica.snapshot(start)
                sub.blocks_ns[r] = block
                end_max = max(end_max, start + block)
                self.max_block_ns = max(self.max_block_ns, block)
            self.fleet.dlm.release(EPOCH_LOCK, sub.owner, end_max)
            self._last_release_ns = end_max
            self.draining = ()
            if self.fleet.fleet_trace(end_max):
                points.tracepoint("snap.wave_end",
                                  dur_ns=end_max - sub.grant_ns,
                                  wave=sub.wave, sub=sub.index,
                                  max_block_ns=max(sub.blocks_ns.values(),
                                                   default=0))
            self.subwaves_completed += 1
            self._active = None
            # Loop: the next sub-wave may already be due at ``now_ns``.

    def _count_waves(self):
        """Waves fully dealt with so far (every sub-wave executed/skipped)."""
        done = self.subwaves_completed + self.subwaves_skipped
        n = len(self.fleet.replicas)
        chunk = n if self.strategy == "simultaneous" else self.stagger_k
        per_wave = (n + chunk - 1) // chunk
        return done // per_wave

    def flush(self):
        """Execute everything still scheduled (end of campaign).

        Drains until nothing is pending or active: sub-waves that overrun
        their interval push later grants past any horizon fixed up front.
        """
        self.pump(math.inf)

    def stats(self):
        return {
            "strategy": self.strategy,
            "waves_completed": self._count_waves(),
            "subwaves_completed": self.subwaves_completed,
            "subwaves_skipped": self.subwaves_skipped,
            "max_block_ns": self.max_block_ns,
        }
