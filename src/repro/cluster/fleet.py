"""The fleet: N replica Machines, one gateway, one open-loop campaign.

This is the discrete-event layer the ROADMAP's first open item asks for,
built on the Virtuoso/markkampe trade: the *network* is an analytic
latency/bandwidth/resource model (sum the costs, take the longest path
for parallel work), while each replica stays the faithful per-page
simulator — so a fleet sweep finishes in seconds, yet the fork block and
the post-snapshot COW burst are still produced by the real paging model.

A request's home replica depends only on its key (or, round-robin, its
position), so the whole campaign is striped up front.  The event loop then
walks arrivals in fleet-time order.  Per arrival it pumps the snapshot
coordinator (waves whose grant has passed execute their forks), fails the
request over while its home drains, admits it, books the inbound NIC/link
costs, serves on the replica's own machine clock (slaved to fleet time),
and books the response path.  Per-replica virtual clocks advance
independently; fleet completion is the longest path over them.

Accounting is conservative by construction and checked by the verify
harness's fleet leg: every generated request is either completed or
dropped-at-gateway, with per-replica splits that sum to the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import percentile
from ..apps.traffic import ArrivalProcess
from ..errors import InvalidArgumentError
from ..kernel.failpoints import FailPoints
from ..trace import points
from .coordinator import SnapshotCoordinator
from .dlm import Dlm
from .gateway import Gateway
from .replica import Replica

#: The fleet-wide SLO percentiles (p999 == 99.9th).
FLEET_PERCENTILES = (50, 99, 99.9)


class _StampClock:
    """A settable stamp source for gateway-scope tracepoints."""

    __slots__ = ("now_ns",)

    def __init__(self):
        self.now_ns = 0


class _GatewayShim:
    """Duck-typed 'machine' so fleet events get their own Perfetto track."""

    class _Cost:
        __slots__ = ("clock",)

        def __init__(self):
            self.clock = _StampClock()

    def __init__(self):
        self.cost = self._Cost()
        self.smp = None


class FleetAggregator:
    """Per-replica latency samples merged into fleet-wide percentiles.

    Percentiles use the same nearest-rank rule as the paper's tables
    (``analysis.stats.percentile``); with tiny samples that rule is
    well-defined — p999 of ten samples is simply the maximum — which the
    unit tests pin down so small smoke runs stay meaningful.
    """

    def __init__(self, n_replicas):
        self._samples = [[] for _ in range(n_replicas)]
        self.dropped = 0

    def add(self, replica, latency_ns):
        self._samples[replica].append(latency_ns)

    def drop(self):
        self.dropped += 1

    @property
    def completed(self):
        return sum(len(s) for s in self._samples)

    def completed_by_replica(self):
        return [len(s) for s in self._samples]

    def merged(self):
        """All samples, fleet-wide (np.int64 array)."""
        flat = [v for s in self._samples for v in s]
        return np.asarray(flat, dtype=np.int64)

    def percentiles(self, points_=FLEET_PERCENTILES):
        """Fleet-wide ``{pct: latency_ns}`` (empty dict with no samples)."""
        merged = sorted(v for s in self._samples for v in s)
        if not merged:
            return {}
        return {p: percentile(merged, p) for p in points_}

    def replica_percentiles(self, replica, points_=FLEET_PERCENTILES):
        """One replica's ``{pct: latency_ns}`` (empty when it served none)."""
        samples = self._samples[replica]
        if not samples:
            return {}
        ordered = sorted(samples)
        return {p: percentile(ordered, p) for p in points_}


@dataclass
class FleetConfig:
    """Everything one fleet campaign needs; defaults suit a quick sweep."""

    replicas: int = 4
    policy: str = "hash"              # "hash" | "rr"
    strategy: str = "staggered"       # see coordinator.STRATEGIES
    stagger_k: int = 1
    use_odfork: bool = True
    rate_rps: float = 1e6
    n_requests: int = 50_000
    distribution: str = "poisson"     # "poisson" | "deterministic"
    write_ratio: float = 0.10
    data_mb: int = 64
    value_bytes: int = 1024
    phys_mb: int = None               # default: 4x data_mb per replica
    seed: int = 1234
    wave_interval_ms: float = 8.0
    n_waves: int = 2
    queue_limit: int = None           # per-replica; None = unbounded
    serialize_ms: float = 40.0        # snapshot child lifetime (fleet time)
    req_bytes: int = 128
    resp_bytes: int = 256
    front_gbps: float = 40.0
    back_gbps: float = 10.0
    hop_us: float = 5.0
    dlm_rtt_us: float = 20.0
    nic_retransmit_us: float = 50.0

    def __post_init__(self):
        if self.replicas < 1:
            raise InvalidArgumentError("fleet needs at least one replica")
        if self.n_requests < 1:
            raise InvalidArgumentError("campaign needs requests")
        if not 0 <= self.write_ratio <= 1:
            raise InvalidArgumentError("write ratio must be in [0, 1]")


@dataclass
class FleetResult:
    """One campaign's outcome: samples plus every layer's tallies."""

    config: FleetConfig
    aggregator: FleetAggregator
    generated: int
    duration_ns: int
    gateway_stats: dict
    nic_stats: dict
    dlm_stats: dict
    coordinator_stats: dict
    replica_info: list
    fork_blocks_ns: list = field(default_factory=list)

    @property
    def completed(self):
        return self.aggregator.completed

    @property
    def dropped(self):
        return self.gateway_stats["dropped"]

    def percentiles_ms(self, points_=FLEET_PERCENTILES):
        """Fleet-wide percentiles in milliseconds."""
        return {p: v / 1e6 for p, v in
                self.aggregator.percentiles(points_).items()}

    def conserved(self):
        """True iff no request was lost by the accounting itself."""
        by_replica = sum(self.aggregator.completed_by_replica())
        return (self.completed + self.dropped == self.generated
                and by_replica == self.completed)


class Fleet:
    """N replicas + gateway + DLM + snapshot coordinator, ready to run."""

    def __init__(self, config):
        self.config = config
        self.failpoints = FailPoints()
        self._shim = _GatewayShim()
        tracer = points.current()
        if tracer is not None:
            tracer.bind(self._shim)       # pid 0: the gateway track
        self.replicas = [
            Replica(i, data_mb=config.data_mb,
                    value_bytes=config.value_bytes,
                    phys_mb=config.phys_mb,
                    use_odfork=config.use_odfork,
                    serialize_ms=config.serialize_ms,
                    seed=config.seed)
            for i in range(config.replicas)
        ]
        self.gateway = Gateway(
            config.replicas, policy=config.policy, seed=config.seed,
            front_gbps=config.front_gbps, back_gbps=config.back_gbps,
            hop_us=config.hop_us, req_bytes=config.req_bytes,
            resp_bytes=config.resp_bytes, queue_limit=config.queue_limit,
            failpoints=self.failpoints,
            nic_retransmit_us=config.nic_retransmit_us)
        self.dlm = Dlm(acquire_rtt_us=config.dlm_rtt_us,
                       failpoints=self.failpoints)
        self.coordinator = SnapshotCoordinator(
            self, strategy=config.strategy, stagger_k=config.stagger_k,
            wave_interval_ms=config.wave_interval_ms,
            n_waves=config.n_waves)
        self.aggregator = FleetAggregator(config.replicas)
        self._ran = False

    # ---- tracing ---------------------------------------------------------

    def fleet_trace(self, ts_ns):
        """Prepare a gateway-scope tracepoint stamped at fleet time.

        Binds the gateway shim (so the event lands on the gateway's
        Perfetto track) and sets its stamp clock; returns True when the
        caller should emit.  The caller invokes ``points.tracepoint``
        itself with a literal name — the trace-registry rule verifies
        every emit site statically, so names never pass through here.
        """
        if not points.enabled:
            return False
        tracer = points.current()
        if tracer is None:
            return False
        tracer.bind(self._shim)
        self._shim.cost.clock.now_ns = ts_ns
        return True

    def trace_process_names(self):
        """Perfetto pid -> track name, in tracer bind order."""
        tracer = points.current()
        if tracer is None:
            return {}
        names = {}
        for pid, bound in enumerate(tracer.machines):
            if bound is self._shim:
                names[pid] = "gateway"
            else:
                for replica in self.replicas:
                    if bound is replica.machine:
                        names[pid] = replica.name
        return names

    # ---- the campaign ----------------------------------------------------

    def run(self):
        """Drive the whole open-loop campaign; returns a FleetResult."""
        if self._ran:
            raise InvalidArgumentError("a Fleet instance runs once")
        self._ran = True
        cfg = self.config
        arrivals = ArrivalProcess(cfg.rate_rps,
                                  distribution=cfg.distribution,
                                  seed=cfg.seed).arrivals(cfg.n_requests)
        rng = np.random.RandomState(cfg.seed + 1)
        keyspace = self.replicas[0].store.n_keys
        keys = rng.randint(0, keyspace, size=cfg.n_requests).tolist()
        writes = (rng.random_sample(cfg.n_requests)
                  < cfg.write_ratio).tolist()

        gateway = self.gateway
        coordinator = self.coordinator
        aggregator = self.aggregator
        replicas = self.replicas
        # Each request's home replica depends only on its key (and, for
        # round-robin, its position), so the striper routes them all up
        # front; drain failover still runs per request, while one drains.
        homes = gateway.striper.route_many(keys)
        pump = coordinator.pump
        failover = gateway.failover
        admit = gateway.admit
        inbound = gateway.inbound
        outbound = gateway.outbound
        record = aggregator.add
        trace_on = points.enabled
        last_completion = 0

        for t, home, key, write in zip(arrivals.tolist(), homes, keys,
                                       writes):
            pump(t)
            draining = coordinator.draining
            rid = failover(home, draining) if draining else home
            replica = replicas[rid]
            qlen = replica.queue_len(t)
            if not admit(rid, qlen):
                aggregator.drop()
                continue
            if trace_on and self.fleet_trace(t):
                points.tracepoint("gateway.enqueue", replica=rid, qlen=qlen,
                                  rerouted=rid != home)
            start = max(inbound(rid, t), replica.ready_at_ns)
            end = start + replica.serve(key, write, start)
            if trace_on and self.fleet_trace(start):
                points.tracepoint("gateway.dispatch", dur_ns=start - t,
                                  replica=rid)
            completion = outbound(rid, end)
            record(rid, completion - t)
            if completion > last_completion:
                last_completion = completion

        coordinator.flush()
        duration = max([last_completion]
                       + [r.ready_at_ns for r in replicas])
        fork_blocks = [ns for r in replicas
                       for ns in r.store.fork_ns_samples]
        return FleetResult(
            config=cfg,
            aggregator=aggregator,
            generated=cfg.n_requests,
            duration_ns=duration,
            gateway_stats=gateway.stats(),
            nic_stats=gateway.nic_stats(),
            dlm_stats=self.dlm.stats(),
            coordinator_stats=coordinator.stats(),
            replica_info=[r.info() for r in replicas],
            fork_blocks_ns=fork_blocks,
        )

    def shutdown(self):
        """Reap snapshot children and exit every replica server."""
        for replica in self.replicas:
            replica.shutdown()


def run_fleet(config):
    """Build, run, and shut down one fleet; returns the FleetResult."""
    fleet = Fleet(config)
    try:
        return fleet.run()
    finally:
        fleet.shutdown()
