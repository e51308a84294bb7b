"""The ktrace subsystem: rings, histograms, tracer, export, metrics.

Covers the ring-buffer overwrite semantics, log2 bucketing edges, the
disabled-path guarantee (no emit site reaches ``tracepoint()`` while
tracing is off), per-CPU attribution under the SMP scheduler, the golden
Chrome-trace export, the unified ``machine.stats()`` snapshot, the
bench-compare perf gate, and the traced-vs-plain oracle audit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import GIB, MIB, Machine
from repro.bench import compare
from repro.trace import points
from repro.trace.hist import Histogram, _bucket, _bucket_bounds, build_histograms, report
from repro.trace.metrics import MetricsRegistry
from repro.trace.registry import EVENTS, KIND_INSTANT, KIND_SPAN, spec_for
from repro.trace.ring import RingBuffer
from repro.trace.tracer import TraceEvent, Tracer, recording
from repro.trace.export import to_chrome_trace, write_chrome_trace

GOLDEN = Path(__file__).parent / "fixtures" / "trace" / "golden_chrome.json"


@pytest.fixture(autouse=True)
def _detached():
    """Every test starts and ends with no tracer attached."""
    points.detach()
    yield
    points.detach()


# --------------------------------------------------------------------- #
# Ring buffer


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_fifo_below_capacity(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.push(i)
        assert list(ring) == [0, 1, 2]
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_overwrites_oldest_and_counts_drops(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.push(i)
        assert list(ring) == [2, 3, 4]
        assert ring.dropped == 2

    def test_drain_empties_but_keeps_drop_counter(self):
        ring = RingBuffer(2)
        for i in range(3):
            ring.push(i)
        assert ring.drain() == [1, 2]
        assert len(ring) == 0
        assert ring.dropped == 1
        ring.push(9)
        assert list(ring) == [9]

    def test_clear_resets_drop_counter(self):
        ring = RingBuffer(1)
        ring.push(1)
        ring.push(2)
        ring.clear()
        assert ring.dropped == 0
        assert len(ring) == 0

    def test_wraps_many_times(self):
        ring = RingBuffer(4)
        for i in range(100):
            ring.push(i)
        assert list(ring) == [96, 97, 98, 99]
        assert ring.dropped == 96


# --------------------------------------------------------------------- #
# Histograms


class TestBucketing:
    @pytest.mark.parametrize("ns,bucket", [
        (0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4),
        (1023, 10), (1024, 11), (1 << 20, 21),
    ])
    def test_bucket_index(self, ns, bucket):
        assert _bucket(ns) == bucket

    def test_bounds_are_half_open_powers_of_two(self):
        assert _bucket_bounds(0) == (0, 1)
        assert _bucket_bounds(1) == (1, 2)
        assert _bucket_bounds(11) == (1024, 2048)

    def test_every_duration_falls_inside_its_bucket(self):
        for ns in (0, 1, 2, 5, 63, 64, 65, 999, 1 << 30):
            lo, hi = _bucket_bounds(_bucket(ns))
            assert lo <= ns < hi

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").add(-1)

    def test_stats_and_rows(self):
        hist = Histogram("fault")
        for ns in (0, 1, 3, 1000):
            hist.add(ns)
        assert hist.count == 4
        assert hist.min_ns == 0
        assert hist.max_ns == 1000
        assert hist.mean_ns == pytest.approx(251.0)
        assert hist.rows() == [(0, 1, 1), (1, 2, 1), (2, 4, 1),
                               (512, 1024, 1)]
        assert "n=4" in hist.render()


def _event(name, ts, fields, cpu=0, pid=0, seq=0):
    return TraceEvent(ts, cpu, pid, name, fields, seq)


class TestHistogramBuild:
    def test_groups_by_class_and_name(self):
        events = [
            _event("fault.handle", 100, {"dur_ns": 50}),
            _event("fault.handle", 300, {"dur_ns": 70}),
            _event("reclaim.shrink", 900, {"dur_ns": 500}),
            _event("fault.demand_zero", 120, {"pfn": 3}),   # instant: skipped
        ]
        by_class = build_histograms(events, by="class")
        assert set(by_class) == {"fault", "reclaim"}
        assert by_class["fault"].count == 2
        by_name = build_histograms(events, by="name")
        assert set(by_name) == {"fault.handle", "reclaim.shrink"}

    def test_report_empty(self):
        assert report([]) == "(no span events recorded)"


# --------------------------------------------------------------------- #
# Registry and emit API


class TestRegistry:
    def test_names_are_class_dotted(self):
        for name, spec in EVENTS.items():
            assert "." in name
            assert spec.cls == name.split(".", 1)[0]
            assert spec.kind in (KIND_SPAN, KIND_INSTANT)

    def test_spans_declare_dur_field(self):
        for name, spec in EVENTS.items():
            if spec.kind == KIND_SPAN:
                assert "dur_ns" in spec.fields, name

    def test_spec_for_unknown_raises(self):
        with pytest.raises(KeyError):
            spec_for("nope.nothing")


class TestPoints:
    def test_detached_emit_is_a_noop(self):
        assert points.enabled is False
        points.tracepoint("fault.demand_zero", pfn=1)   # must not raise

    def test_undeclared_name_raises_when_attached(self):
        tracer = Tracer()
        points.attach(tracer)
        with pytest.raises(points.UnknownTracepoint):
            points.tracepoint("fault.not_a_thing", x=1)

    def test_attach_detach_flips_flag(self):
        tracer = Tracer()
        points.attach(tracer)
        assert points.enabled is True
        assert points.current() is tracer
        points.detach()
        assert points.enabled is False
        assert points.current() is None


class TestDisabledPath:
    def test_no_emit_site_reaches_tracepoint_when_off(self, monkeypatch):
        """Every instrumentation site guards on ``points.enabled``."""
        def boom(name, **fields):          # pragma: no cover - must not run
            raise AssertionError(f"unguarded tracepoint({name!r}) while off")

        monkeypatch.setattr(points, "tracepoint", boom)
        machine = Machine(phys_mb=256)
        parent = machine.spawn_process("guarded")
        buf = parent.mmap(8 * MIB)
        parent.touch_range(buf, 8 * MIB, write=True)
        child = parent.odfork()
        child.touch(buf, write=True)       # table-COW + page-COW faults
        child.exit()
        parent.wait()
        grandchild = parent.fork()
        grandchild.exit()
        parent.wait()
        parent.exit()
        machine.init_process.wait()


# --------------------------------------------------------------------- #
# Tracer + machine recording


class TestRecording:
    def test_fork_workload_emits_ordered_typed_events(self):
        machine = Machine(phys_mb=256)
        parent = machine.spawn_process("rec")
        buf = parent.mmap(4 * MIB)
        parent.touch_range(buf, 4 * MIB, write=True)
        with recording(machine) as tracer:
            child = parent.odfork()
            child.touch(buf, write=True)
            child.exit()
            parent.wait()
            events = tracer.drain()
        assert points.enabled is False     # restored on exit
        names = {e.name for e in events}
        assert "fork.invoke" in names
        assert "odfork.share_done" in names
        assert "fault.handle" in names
        # drained timeline is ordered and every name is declared
        assert all(a.ts_ns <= b.ts_ns for a, b in zip(events, events[1:]))
        assert all(e.name in EVENTS for e in events)
        invoke = next(e for e in events if e.name == "fork.invoke")
        assert invoke.dur_ns > 0
        assert invoke.fields["odf"] is True

    def test_counters_track_emissions(self):
        machine = Machine(phys_mb=128)
        parent = machine.spawn_process("c")
        with recording(machine) as tracer:
            buf = parent.mmap(1 * MIB)
            for i in range(16):
                parent.touch(buf + i * 4096, write=True)
            counters = tracer.counters()
        assert counters["emitted"] == tracer.emitted > 0
        assert counters["dropped"] == 0
        assert counters["count.fault.handle"] == tracer.by_name["fault.handle"]

    def test_ring_wrap_drops_oldest_not_newest(self):
        machine = Machine(phys_mb=128)
        parent = machine.spawn_process("wrap")
        with recording(machine, ring_capacity=8) as tracer:
            buf = parent.mmap(1 * MIB)
            for i in range(16):
                parent.touch(buf + i * 4096, write=True)
            assert tracer.dropped > 0
            events = tracer.drain()
        assert len(events) == 8
        # the survivors are the most recent emissions
        assert events[-1].seq == tracer.emitted - 1

    def test_recording_restores_previous_tracer(self):
        machine = Machine(phys_mb=64)
        outer = Tracer()
        points.attach(outer)
        with recording(machine):
            assert points.current() is not outer
        assert points.current() is outer

    def test_machine_built_under_tracer_binds(self):
        tracer = Tracer()
        points.attach(tracer)
        machine = Machine(phys_mb=64)
        assert machine in tracer.machines


class TestPerCpuUnderSmp:
    def test_lock_events_land_in_their_vcpu_ring(self):
        from repro.smp import Acquire, MODE_WRITE, Preempt, Release

        machine = Machine(phys_mb=128, smp=2)
        sched = machine.smp

        def flow(tag):
            lock = sched.mmap_lock("mm")
            yield Acquire(lock, MODE_WRITE)
            yield Preempt(tag)
            yield Release(lock)

        with recording(machine) as tracer:
            sched.spawn("a", flow("a"))
            sched.spawn("b", flow("b"))
            sched.run()
            cpus = sorted(cpu for cpu in (0, 1)
                          if tracer.ring_for(cpu) is not None)
            assert len(cpus) == 2, "flows should emit from both vCPUs"
            for cpu in cpus:
                ring_events = list(tracer.ring_for(cpu))
                assert ring_events
                assert all(e.cpu == cpu for e in ring_events)
            events = tracer.drain()
        acquires = [e for e in events if e.name == "lock.acquire"]
        assert {e.fields["cpu"] for e in acquires} == {0, 1}
        assert any(e.fields["contended"] for e in acquires)
        waits = [e for e in events if e.name == "lock.wait"]
        assert waits and all(e.dur_ns >= 0 for e in waits)


# --------------------------------------------------------------------- #
# Chrome-trace export


def _golden_events():
    return [
        _event("fault.handle", 5000,
               {"dur_ns": 3000, "vaddr": 4096, "write": True,
                "huge_vma": False}, cpu=0, seq=0),
        _event("fault.demand_zero", 4000, {"pfn": 7}, cpu=0, seq=1),
        _event("lock.wait", 9000, {"dur_ns": 1000, "kind": "mmap", "cpu": 1},
               cpu=1, seq=2),
    ]


class TestChromeExport:
    def test_matches_golden_file(self):
        doc = to_chrome_trace(_golden_events(), label="golden")
        assert doc == json.loads(GOLDEN.read_text())

    def test_span_slice_starts_at_ts_minus_dur(self):
        doc = to_chrome_trace(_golden_events())
        handle = next(e for e in doc["traceEvents"]
                      if e.get("name") == "fault.handle")
        assert handle["ph"] == "X"
        assert handle["ts"] == 2.0      # (5000 - 3000) / 1000
        assert handle["dur"] == 3.0
        assert "dur_ns" not in handle["args"]

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(_golden_events(), path, label="golden")
        assert n == 4                   # 3 events + 1 process_name meta row
        assert json.loads(path.read_text()) == json.loads(GOLDEN.read_text())


# --------------------------------------------------------------------- #
# Metrics registry + machine.stats()


class TestMetricsRegistry:
    def test_snapshot_flattens_namespaced(self):
        reg = MetricsRegistry()
        reg.register("a", lambda: {"x": 1, "y": 2})
        reg.register("b", lambda: {"x": 10})
        assert reg.snapshot() == {"a.x": 1, "a.y": 2, "b.x": 10}
        assert reg.collect("b") == {"x": 10}
        assert reg.namespaces == ["a", "b"]

    def test_register_validates(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.register("a.b", dict)
        with pytest.raises(TypeError):
            reg.register("a", 42)

    def test_unregister(self):
        reg = MetricsRegistry()
        reg.register("a", lambda: {"x": 1})
        reg.unregister("a")
        assert reg.snapshot() == {}


class TestMachineStats:
    def test_attribute_proxy_still_works(self):
        machine = Machine(phys_mb=128)
        parent = machine.spawn_process("s")
        buf = parent.mmap(1 * MIB)
        parent.touch_range(buf, 1 * MIB, write=True)
        assert machine.stats.page_faults == 256
        machine.stats.page_faults = 0          # tests reset counters this way
        assert machine.kernel.stats.page_faults == 0

    def test_calling_stats_returns_unified_snapshot(self):
        machine = Machine(phys_mb=128)
        parent = machine.spawn_process("s")
        buf = parent.mmap(1 * MIB)
        for i in range(16):
            parent.touch(buf + i * 4096, write=True)
        snap = machine.stats()
        assert snap["vm.page_faults"] == 16
        assert snap["mem.total_frames"] == machine.allocator.n_frames
        assert snap["tlb.misses"] > 0
        assert "lock.waits" not in snap        # no SMP on this machine

    def test_smp_machine_exposes_lock_namespace(self):
        machine = Machine(phys_mb=128, smp=2)
        assert machine.stats()["lock.waits"] == 0

    def test_vmstat_is_the_vm_namespace(self):
        machine = Machine(phys_mb=128)
        assert machine.vmstat() == machine.metrics.collect("vm")

    def test_trace_namespace_live_only_while_bound(self):
        machine = Machine(phys_mb=128)
        assert "trace.emitted" not in machine.stats()
        parent = machine.spawn_process("t")
        with recording(machine):
            buf = parent.mmap(1 * MIB)
            parent.touch_range(buf, 1 * MIB, write=True)
            snap = machine.stats()
            assert snap["trace.emitted"] > 0
        assert "trace.emitted" not in machine.stats()


# --------------------------------------------------------------------- #
# Bench-compare perf gate


def _payload(fork_ms=7.0, odfork_ms=0.1, speedup=70.0, fault_ms=0.003,
             huge_ms=0.2, odf_fault_ms=0.012, p99=960.0,
             fleet_p99=0.12, numa_speedup=30.0, odf_100gb_ms=1.8,
             wall_s=12.0, faas_p99=88.0, faas_density=490.0,
             fig7_fills=58880):
    return [
        {"exp_id": "fig7", "title": "fig7",
         "headers": ["size_gb", "fork_ms", "fork_huge_ms", "odfork_ms",
                     "speedup_x", "paper_fork_ms", "paper_odf_ms"],
         "rows": [[0.5, 3.0, 2.0, 0.05, 60.0, 0, 0],
                  [1, fork_ms, 4.0, odfork_ms, speedup, 0, 0],
                  [100, "", "", odf_100gb_ms, "", "", ""]],
         "notes": ""},
        {"exp_id": "bench", "title": "harness wall-clock",
         "headers": ["metric", "seconds"],
         "rows": [["fig7_wall_s", wall_s * 0.7],
                  ["smoke_wall_s", wall_s]],
         "notes": ""},
        {"exp_id": "table1", "title": "table1",
         "headers": ["type", "measured_ms", "paper_ms"],
         "rows": [["Fork", fault_ms, 0],
                  ["Fork w/ huge pages", huge_ms, 0],
                  ["On-demand-fork", odf_fault_ms, 0]],
         "notes": ""},
        {"exp_id": "ext-reclaim", "title": "reclaim",
         "headers": ["heap/RAM", "p50 (us)", "p99 (us)"],
         "rows": [["0.5x", 400.0, 410.0], ["2.0x", 800.0, p99]],
         "notes": ""},
        {"exp_id": "fleet", "title": "fleet",
         "headers": ["config", "strategy", "flavor", "p50_ms", "p99_ms",
                     "p999_ms"],
         "rows": [["simultaneous/fork", "simultaneous", "fork",
                   0.02, 1.7, 1.8],
                  ["staggered/odfork", "staggered", "odfork",
                   0.02, fleet_p99, 0.14]],
         "notes": ""},
        {"exp_id": "faas", "title": "faas",
         "headers": ["flavor", "cold_p50_us", "cold_start_p99_us",
                     "e2e_p99_ms", "density_fn_per_gb"],
         "rows": [["fork", 1580.0, 1750.0, 1510.0, 110.0],
                  ["odfork", 86.0, faas_p99, 80.0, faas_density]],
         "notes": ""},
        {"exp_id": "fig7-numa", "title": "fig7-numa",
         "headers": ["mode", "fork_ms", "odfork_ms", "odfork_speedup_x",
                     "local_ns_pp", "remote_ns_pp", "remote_penalty_x"],
         "rows": [["flat", 1.8, 0.08, 21.0, 220.0, 220.0, 1.0],
                  ["numa-shared", 1.9, 0.09, 22.0, 221.0, 701.0, 3.2],
                  ["numa-replicated", 2.6, 0.09, numa_speedup,
                   221.0, 341.0, 1.5]],
         "notes": ""},
        {"exp_id": "fastpath", "title": "fastpath",
         "headers": ["experiment", "fill_engaged", "fork_engaged",
                     "exit_engaged", "bailed"],
         "rows": [["fig7", fig7_fills, 40, 344, 0],
                  ["faas", 74, 1015, 2036, 0]],
         "notes": "no bails"},
    ]


class TestCompareGate:
    def test_identical_payloads_pass(self):
        base = compare.extract_all(_payload())
        deltas, regressions = compare.compare_payloads(_payload(), base)
        assert regressions == []
        assert len(deltas) == len(compare.TRACKED)
        assert all(d.ratio == 1.0 for d in deltas)

    def test_injected_2x_slowdown_fails_the_gate(self):
        base = compare.extract_all(_payload())
        deltas, regressions = compare.compare_payloads(
            _payload(fork_ms=14.0), base)
        assert len(regressions) == 1
        assert "fig7.fork_ms@1gb" in regressions[0]
        assert "2.00x" in regressions[0]

    def test_engagement_counts_and_100gb_point_gate(self):
        # The fast-path sentinels: an engagement count that moves either
        # way, by a single unit, fails the gate, and so does a blown-up
        # 100 GB odfork showcase row.  Host wall-clock is a report only.
        base = compare.extract_all(_payload())
        for fills in (58879, 58881):
            _, regressions = compare.compare_payloads(
                _payload(fig7_fills=fills), base)
            assert regressions == [
                f"fastpath.fill_engaged@fig7: 58880 -> {fills} "
                f"(counts are gated exactly)"]
        _, regressions = compare.compare_payloads(
            _payload(odf_100gb_ms=9.0), base)
        assert any("fig7.odfork_ms@100gb" in r for r in regressions)
        _, regressions = compare.compare_payloads(
            _payload(wall_s=300.0), base)
        assert regressions == []

    def test_speedup_is_higher_is_better(self):
        base = compare.extract_all(_payload())
        # speedup halving is a regression; speedup doubling is not
        _, regressions = compare.compare_payloads(
            _payload(speedup=35.0), base)
        assert any("speedup" in r for r in regressions)
        _, regressions = compare.compare_payloads(
            _payload(speedup=140.0), base)
        assert regressions == []

    def test_within_threshold_noise_passes(self):
        base = compare.extract_all(_payload())
        _, regressions = compare.compare_payloads(
            _payload(fork_ms=7.0 * 1.2, p99=960.0 * 0.9), base)
        assert regressions == []

    def test_missing_table_is_a_regression(self):
        base = compare.extract_all(_payload())
        _, regressions = compare.compare_payloads(_payload()[:2], base)
        assert any("ext-reclaim" in r for r in regressions)

    def test_missing_baseline_metric_is_a_regression(self):
        base = compare.extract_all(_payload())
        del base["fig7.fork_ms@1gb"]
        _, regressions = compare.compare_payloads(_payload(), base)
        assert any("not in baseline" in r for r in regressions)

    def test_stale_baseline_key_is_a_regression(self):
        # A baseline row no tracked metric reads would otherwise linger
        # unchecked after its metric is retired.
        base = compare.extract_all(_payload())
        base["fastpath.retired_count@fig7"] = 21
        deltas, regressions = compare.compare_payloads(_payload(), base)
        assert len(deltas) == len(compare.TRACKED)
        assert regressions == ["fastpath.retired_count@fig7: stale baseline "
                               "entry, no tracked metric reads it (remove it)"]

    def test_cli_seed_then_pass_then_fail(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        current.write_text(json.dumps(_payload()))
        assert compare.main([str(current), str(baseline),
                             "--write-baseline"]) == 0
        assert compare.main([str(current), str(baseline)]) == 0
        assert (f"all {len(compare.TRACKED)} tracked metrics"
                in capsys.readouterr().out)
        current.write_text(json.dumps(_payload(odfork_ms=0.3)))
        assert compare.main([str(current), str(baseline)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_faas_density_is_higher_is_better(self):
        base = compare.extract_all(_payload())
        # Density halving (fewer functions per GB) is a regression...
        _, regressions = compare.compare_payloads(
            _payload(faas_density=245.0), base)
        assert any("faas.density_fn_per_gb" in r for r in regressions)
        # ...density doubling is an improvement, not a failure.
        _, regressions = compare.compare_payloads(
            _payload(faas_density=980.0), base)
        assert regressions == []

    def test_faas_cold_start_regression_fails_the_gate(self):
        base = compare.extract_all(_payload())
        _, regressions = compare.compare_payloads(
            _payload(faas_p99=200.0), base)
        assert any("faas.cold_start_p99_us" in r for r in regressions)

    def test_step_summary_written_on_pass_and_fail(self, tmp_path,
                                                   monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        base = compare.extract_all(_payload())
        deltas, regressions = compare.compare_payloads(_payload(), base)
        assert compare.write_step_summary(deltas, regressions)
        text = summary.read_text()
        assert "| `faas.cold_start_p99_us` |" in text
        assert "within the 25% gate" in text
        # A failing gate appends the regression verdict, old and new.
        deltas, regressions = compare.compare_payloads(
            _payload(faas_p99=200.0), base)
        assert compare.write_step_summary(deltas, regressions)
        text = summary.read_text()
        assert ":x: regressed" in text
        assert "failed the 25% gate" in text

    def test_step_summary_noop_outside_actions(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert not compare.write_step_summary([], [])

    def test_committed_baseline_tracks_every_metric(self):
        baseline = json.loads(
            (Path(__file__).parent.parent / "benchmarks" /
             "baseline.json").read_text())
        assert set(baseline["metrics"]) == {m.key for m in compare.TRACKED}
        assert all(v > 0 for v in baseline["metrics"].values())


# --------------------------------------------------------------------- #
# CLI + oracle audit


class TestTraceCli:
    def test_list_prints_registry(self, capsys):
        from repro.trace.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fork.invoke" in out
        assert "fault.handle" in out

    def test_record_forkbench_exports_valid_chrome_trace(self, tmp_path,
                                                         capsys):
        from repro.trace.__main__ import main
        out_json = tmp_path / "trace.json"
        assert main(["record", "--workload", "forkbench",
                     "--variant", "odfork", "--size-gb", "0.0625",
                     "--repeats", "1", "--export", str(out_json)]) == 0
        printed = capsys.readouterr().out
        assert "events=" in printed
        assert "mean=" in printed          # a histogram rendered
        doc = json.loads(out_json.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases


class TestOracleTraceAudit:
    def test_tracing_is_side_effect_free_on_random_traces(self):
        from repro.verify.oracle import check_trace_traced
        from repro.verify.trace import generate_trace
        for seed in (0, 1):
            trace = generate_trace(seed, n_ops=12)
            assert check_trace_traced(trace) == []
