"""End-to-end fleet campaigns: conservation, the headline, tracing, faults."""

import hashlib
import json

import pytest

from repro.cluster import Fleet, FleetConfig, run_fleet
from repro.cluster.coordinator import EPOCH_LOCK
from repro.errors import InvalidArgumentError
from repro.trace import points
from repro.trace.export import to_chrome_trace
from repro.trace.tracer import Tracer
from repro.verify.fleet import check_fleet


def tiny(**overrides):
    """A sub-second fleet campaign for unit tests."""
    base = dict(replicas=3, data_mb=16, n_requests=4000, rate_rps=1e6,
                wave_interval_ms=1.0, n_waves=2, seed=77)
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture(autouse=True)
def _detached():
    points.detach()
    yield
    points.detach()


class TestConservation:
    def test_unbounded_campaign_conserves(self):
        result = run_fleet(tiny(strategy="simultaneous", use_odfork=False))
        assert result.conserved()
        assert result.generated == 4000
        assert result.dropped == 0
        assert result.coordinator_stats["waves_completed"] == 2

    def test_queue_limit_drops_stay_accounted(self):
        result = run_fleet(tiny(strategy="simultaneous", use_odfork=False,
                                queue_limit=4))
        # Classic-fork blocks pile up multi-us arrivals behind a ~ms fork;
        # a tight queue limit must convert the excess into counted drops.
        assert result.dropped > 0
        assert result.conserved()

    def test_per_replica_split_sums_to_total(self):
        result = run_fleet(tiny())
        split = result.aggregator.completed_by_replica()
        assert sum(split) == result.completed
        assert all(n > 0 for n in split)      # hash striping covers all


class TestHeadline:
    def test_staggered_odfork_beats_simultaneous_classic_p999(self):
        worst = run_fleet(tiny(strategy="simultaneous", use_odfork=False))
        best = run_fleet(tiny(strategy="staggered", use_odfork=True))
        p_worst = worst.percentiles_ms((99.9,))[99.9]
        p_best = best.percentiles_ms((99.9,))[99.9]
        assert p_best < p_worst
        # The gap is the fork block itself: well over 2x at these sizes.
        assert p_worst / p_best > 2

    def test_odfork_blocks_shorter_than_classic(self):
        classic = run_fleet(tiny(strategy="simultaneous", use_odfork=False))
        odf = run_fleet(tiny(strategy="simultaneous", use_odfork=True))
        assert max(odf.fork_blocks_ns) < min(classic.fork_blocks_ns)


class TestStrategies:
    def test_staggered_serializes_epochs_fifo(self):
        fleet = Fleet(tiny(strategy="staggered", stagger_k=1))
        try:
            fleet.run()
        finally:
            fleet.shutdown()
        order = fleet.dlm.grant_order(EPOCH_LOCK)
        # 2 waves x 3 replicas at k=1: six sub-waves, granted in order.
        assert order == ["wave0.0", "wave0.1", "wave0.2",
                         "wave1.0", "wave1.1", "wave1.2"]
        assert fleet.dlm.holder(EPOCH_LOCK) is None

    @pytest.mark.parametrize("n_waves", [6, 4])
    def test_flush_drains_sub_waves_that_overrun_their_interval(self, n_waves):
        # Classic-fork blocks (~1.6 ms) far exceed the 0.4 ms interval, so
        # later grants chain past any horizon fixed before the final pump.
        config = FleetConfig(replicas=2, strategy="staggered",
                             use_odfork=False, rate_rps=1e6, n_requests=3000,
                             data_mb=16, wave_interval_ms=0.4,
                             n_waves=n_waves, seed=1234)
        fleet = Fleet(config)
        try:
            result = fleet.run()
        finally:
            fleet.shutdown()
        stats = result.coordinator_stats
        assert stats["waves_completed"] == n_waves
        assert stats["subwaves_completed"] == 2 * n_waves
        assert fleet.coordinator._pending == []
        assert fleet.coordinator._active is None
        assert fleet.dlm.holder(EPOCH_LOCK) is None
        assert result.conserved()

    def test_drain_reroutes_and_conserves(self):
        result = run_fleet(tiny(strategy="drain", use_odfork=False,
                                n_requests=8000))
        assert result.gateway_stats["rerouted"] > 0
        assert result.conserved()
        assert result.dropped == 0            # rerouted, never dropped

    def test_fleet_runs_once(self):
        fleet = Fleet(tiny())
        try:
            fleet.run()
            with pytest.raises(InvalidArgumentError):
                fleet.run()
        finally:
            fleet.shutdown()


class TestTracing:
    def test_fleet_tracepoints_emitted(self):
        tracer = Tracer()
        points.attach(tracer)
        fleet = Fleet(tiny(strategy="staggered", n_requests=2000))
        try:
            fleet.run()
        finally:
            fleet.shutdown()
            points.detach()
        names = {e.name for e in tracer.drain()}
        for expected in ("gateway.enqueue", "gateway.dispatch", "nic.tx",
                         "nic.rx", "dlm.acquire", "dlm.release",
                         "snap.wave_start", "snap.wave_end"):
            assert expected in names, f"missing {expected}"

    def test_perfetto_tracks_per_replica(self):
        tracer = Tracer()
        points.attach(tracer)
        fleet = Fleet(tiny(n_requests=1500))
        try:
            fleet.run()
            process_names = fleet.trace_process_names()
        finally:
            fleet.shutdown()
            points.detach()
        assert set(process_names.values()) == {
            "gateway", "replica0", "replica1", "replica2"}
        doc = to_chrome_trace(tracer.drain(), label="fleet",
                              process_names=process_names)
        meta = {e["args"]["name"] for e in doc["traceEvents"]
                if e.get("ph") == "M"}
        assert "fleet:gateway" in meta
        assert "fleet:replica2" in meta

    def test_untraced_run_unaffected(self):
        traced = None
        tracer = Tracer()
        points.attach(tracer)
        try:
            traced = run_fleet(tiny(n_requests=1500))
        finally:
            points.detach()
        plain = run_fleet(tiny(n_requests=1500))
        assert (traced.percentiles_ms((99,))[99]
                == plain.percentiles_ms((99,))[99])


class TestFaultInjection:
    def test_gateway_overflow_failpoint_conserves(self):
        fleet = Fleet(tiny(n_requests=2000))
        fleet.failpoints.arm("gateway.queue_overflow", 100)
        try:
            result = fleet.run()
        finally:
            fleet.shutdown()
        assert result.dropped == 1
        assert result.conserved()

    def test_dlm_timeout_skips_epoch_cleanly(self):
        fleet = Fleet(tiny(strategy="staggered", n_requests=2000))
        fleet.failpoints.arm("dlm.acquire_timeout", 1)
        try:
            result = fleet.run()
        finally:
            fleet.shutdown()
        assert result.coordinator_stats["subwaves_skipped"] == 1
        assert result.conserved()
        assert fleet.dlm.holder(EPOCH_LOCK) is None

    def test_nic_drop_delays_but_delivers(self):
        armed = Fleet(tiny(n_requests=2000))
        armed.failpoints.arm("nic.tx_drop", 50)
        try:
            result = armed.run()
        finally:
            armed.shutdown()
        assert result.conserved()
        assert result.completed == result.generated    # nothing lost

    def test_verify_fleet_leg_clean(self):
        findings, meta = check_fleet(seed=5, max_hits_per_site=1)
        assert findings == []
        # Per strategy: baseline + one hit per site.
        assert meta["campaigns"] == {"staggered": 4, "drain": 4}
        assert meta["runs"] == 8
        assert meta["sites"]["gateway.queue_overflow"] > 0


# ---- golden digests --------------------------------------------------------

def _golden_config(policy="hash", strategy="staggered", use_odfork=True,
                   **overrides):
    """The verify leg's small campaign: 3 replicas, 3k arrivals, 2 waves."""
    base = dict(replicas=3, data_mb=16, n_requests=3000, rate_rps=1e6,
                wave_interval_ms=1.0, n_waves=2, seed=5, policy=policy,
                strategy=strategy, use_odfork=use_odfork)
    base.update(overrides)
    return FleetConfig(**base)


def _fleet_digest(fleet, result):
    """sha256 over every virtual output of one campaign (16 hex digits).

    Covers each replica's latency samples, every layer's tallies, the
    fork blocks, per-replica served/snapshots/RSS, and each replica
    machine's clock, vmstat, per-function charged time and server TLB
    counters, plus the fleet's fail-point hit counts.
    """
    samples = result.aggregator.merged().tolist()
    split = result.aggregator.completed_by_replica()
    per_replica, pos = [], 0
    for n in split:
        per_replica.append(samples[pos:pos + n])
        pos += n
    machines = []
    for replica in fleet.replicas:
        machine = replica.machine
        tlb = replica.store.proc.mm.tlb.stats
        machines.append({
            "now_ns": machine.clock.now_ns,
            "vmstat": machine.vmstat(),
            "charged": machine.profiler.breakdown(),
            "tlb": [tlb.hits, tlb.misses, tlb.flushes_full,
                    tlb.flushes_range, tlb.evictions],
        })
    payload = {
        "samples": per_replica,
        "generated": result.generated,
        "duration_ns": result.duration_ns,
        "gateway": result.gateway_stats,
        "nic": result.nic_stats,
        "dlm": result.dlm_stats,
        "coordinator": result.coordinator_stats,
        "fork_blocks_ns": result.fork_blocks_ns,
        "replicas": [(r["served"], r["snapshots"], r["rss_bytes"])
                     for r in result.replica_info],
        "machines": machines,
        "failpoints": fleet.failpoints.counts,
    }
    blob = json.dumps(payload, sort_keys=True, default=int).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


GRID = [(policy, strategy, flavour)
        for policy in ("hash", "rr")
        for strategy in ("simultaneous", "staggered", "drain")
        for flavour in ("fork", "odfork")]

#: Campaign id -> (config overrides, armed fail-point or None).
GOLDEN_CAMPAIGNS = {
    f"{policy}-{strategy}-{flavour}": (
        dict(policy=policy, strategy=strategy,
             use_odfork=flavour == "odfork"), None)
    for policy, strategy, flavour in GRID
}
GOLDEN_CAMPAIGNS.update({
    # 1,751 of the 3,000 arrivals are dropped at admission.
    "hash-staggered-odfork-qlimit": (
        dict(queue_limit=4, rate_rps=2e6), None),
    "hash-drain-fork-overflow": (
        dict(strategy="drain", use_odfork=False),
        ("gateway.queue_overflow", 700)),
    "hash-staggered-odfork-txdrop-early": (
        {}, ("nic.tx_drop", 3)),
    "rr-drain-odfork-txdrop-late": (
        dict(policy="rr", strategy="drain"), ("nic.tx_drop", 5500)),
    "hash-drain-odfork-dlm-timeout": (
        dict(strategy="drain"), ("dlm.acquire_timeout", 2)),
})

#: Digests of the campaigns above.  Any change to routing, NIC booking,
#: admission, the snapshot waves or the replicas' access path that moves
#: one virtual bit moves its digest.
FLEET_GOLDEN = {
    "hash-drain-fork": "e6b40bd16e839a1c",
    "hash-drain-fork-overflow": "dc3d7a3690bb8b0c",
    "hash-drain-odfork": "e5718023be5e97f4",
    "hash-drain-odfork-dlm-timeout": "a5aac9f7f264e401",
    "hash-simultaneous-fork": "4bf038c88ac9c106",
    "hash-simultaneous-odfork": "7474f087199bd8f4",
    "hash-staggered-fork": "754ccb43863f73e1",
    "hash-staggered-odfork": "11a32ef897381aee",
    "hash-staggered-odfork-qlimit": "f376cb3c2d1866f3",
    "hash-staggered-odfork-txdrop-early": "34234ae65012ad9b",
    "rr-drain-fork": "226bf56569484cc5",
    "rr-drain-odfork": "5d148fe87cb073be",
    "rr-drain-odfork-txdrop-late": "302fb6130998493e",
    "rr-simultaneous-fork": "d8e9f12232a7c403",
    "rr-simultaneous-odfork": "6b873d13244e1f48",
    "rr-staggered-fork": "4903689c80f81a12",
    "rr-staggered-odfork": "ee596f434885b1ef",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
def test_fleet_golden_digest(name):
    overrides, arm = GOLDEN_CAMPAIGNS[name]
    fleet = Fleet(_golden_config(**overrides))
    if arm is not None:
        fleet.failpoints.arm(*arm)
    try:
        result = fleet.run()
        digest = _fleet_digest(fleet, result)
    finally:
        fleet.shutdown()
    assert result.conserved()
    if arm is not None:
        assert fleet.failpoints.fired, f"{arm} never fired"
    if name == "hash-staggered-odfork-qlimit":
        assert result.dropped == 1751
    assert digest == FLEET_GOLDEN[name]
