"""End-to-end fleet campaigns: conservation, the headline, tracing, faults."""

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
        assert meta["runs"] == 4          # baseline + one hit per site
        assert meta["sites"]["gateway.queue_overflow"] > 0
