"""Benchmark self-tests: ``python -m pytest perf/tests -q`` (~20 s)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
from stats import latency_summary, tail_percentile
from tracer import Tracer
from worker import run_workload
from workloads import TINY, WORKLOADS


def _traced(name, seed=1):
    tracer = Tracer()
    tracer.install()
    try:
        report = run_workload(name, seed, 0, TINY[name], run.TRACE_ROUNDS,
                              tracer=tracer, audit=False)
    finally:
        tracer.uninstall()
    report["layers"] = tracer.layer_metrics()
    report["spans"] = len(tracer.spans)
    return report


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_checks_and_traces_identically(name):
    plain = run_workload(name, 1, 0, TINY[name], run.MIN_ROUNDS)
    assert plain["problems"] == []
    assert plain["rounds"] == run.MIN_ROUNDS
    assert plain["attempted"] > 0 and plain["failed"] == 0
    assert plain["checks"] > 0
    traced = _traced(name)
    plain["attempted"] = traced["attempted"]   # 3 rounds vs 1
    assert traced["problems"] == []
    assert run.virtual_view(traced) == run.virtual_view(plain)
    # Every metric BENCHMARK.json lists is produced, and nothing else.
    e2e = run.end_to_end(plain)
    assert set(e2e) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    layers = run.per_layer(plain, traced)
    assert set(layers) == {m["name"] for m in run.SPEC["per_layer"]}
    assert layers["trace.spans"][0] > 0
    if name == "fork-sweep":
        variants = plain["virt_variants"]
        assert set(variants) == {"fork", "fork_huge", "odfork", "smp_fork"}
        assert sum(variants[v]["n"] for v in ("fork", "fork_huge",
                                              "smp_fork")) \
            == plain["virt"]["fork"]["n"]
        assert layers["kernel.rmap.pages"][0] == 0
        assert layers["kernel.fastpath.fork_engaged"][0] > 0
        assert layers["smp.calls"][0] > 0
    if name == "reclaim-overcommit":
        assert layers["kernel.rmap.pages"][0] > 0
        assert layers["kernel.reclaim.pgsteal"][0] > 0


def test_rounds_continue_until_the_cpu_budget_is_spent():
    report = run_workload("reclaim-overcommit", 5, 0.5,
                          TINY["reclaim-overcommit"], run.MIN_ROUNDS)
    assert report["rounds"] > run.MIN_ROUNDS
    assert report["problems"] == []
    assert report["attempted"] == report["rounds"] * report["round_ops"]


def _holders(obj):
    return {name for name, module in sys.modules.items()
            if module is not None
            and (name == "repro" or name.startswith("repro."))
            and any(v is obj for v in vars(module).values())}


def test_wrapper_rebinds_every_importer_and_restores_them():
    import repro.kernel.rmap as rmap_mod
    from repro.kernel.snapshot import Snapshot
    from repro.mem.buddy import BuddyAllocator

    original = rmap_mod.rmap_add_bulk
    importers = _holders(original)
    assert {"repro.kernel.rmap", "repro.kernel.bulkops",
            "repro.kernel.fastpath", "repro.kernel.snapshot",
            "repro.kernel.thp"} <= importers
    alloc = vars(BuddyAllocator)["alloc"]
    create = vars(Snapshot)["create"]

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = rmap_mod.rmap_add_bulk
        assert wrapped is not original
        assert _holders(original) == set()
        assert _holders(wrapped) == importers
        assert isinstance(vars(Snapshot)["create"], classmethod)
        # A call through a module that imported the name is counted.
        from repro import MIB, Machine
        machine = Machine(phys_mb=32, swap_mb=32)
        proc = machine.spawn_process("p")
        buf = proc.mmap(MIB)
        tracer.resume()
        proc.touch_range(buf, MIB, write=True)
        proc.fork().exit()
        proc.wait()
        tracer.pause()
        metrics = tracer.layer_metrics()
        assert metrics["kernel.rmap.calls"] > 0
        assert metrics["kernel.rmap.pages"] > 0
        assert metrics["mem.buddy.frames_alloc"] > 0
        assert metrics["kernel.fastpath.fork_engaged"] == 1
    finally:
        tracer.uninstall()
    assert _holders(original) == importers
    assert _holders(wrapped) == set()
    assert vars(BuddyAllocator)["alloc"] is alloc
    assert vars(Snapshot)["create"] is create


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        from repro import MIB, Machine
        machine = Machine(phys_mb=64)
        proc = machine.spawn_process("p")
        buf = proc.mmap(8 * MIB)
        proc.touch_range(buf, 8 * MIB, write=True)
        tracer.resume()
        child = proc.fork()
        tracer.pause()
        child.exit()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [tracer.entries[s[0]].target.split(":")[1] for s in spans]
    fork = spans[names.index("Kernel.sys_fork")]
    fast = spans[names.index("fast_copy_mm_classic")]
    assert fast[3] == names.index("Kernel.sys_fork")     # parent span id
    layers = tracer.layer_metrics()
    # Self times partition the outermost span, on both clocks.
    host = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    virt = sum(v for k, v in layers.items() if k.endswith(".virt_ms"))
    assert host * 1e9 == pytest.approx(fork[2] - fork[1])
    assert virt == pytest.approx((fork[6] - fork[5]) / 1e6)
    assert layers["kernel.fork.self_s"] < host


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 50
    summary = latency_summary(list(range(1, 101)))
    assert summary["tail_pct"] == 90 and summary["tail_us"] == 0.09


@pytest.mark.parametrize("b, expected", [
    ([100, 101, 99, 100, 100], "same"),
    ([130, 131, 129, 130, 130], "worse"),
    ([80, 81, 79, 80, 80], "better"),
    ([60, 140, 100, 70, 130], "unresolved"),
    ([30, 31, 32, 33, 34], "better"),       # wide spread, but B < every A
])
def test_compare_verdicts(b, expected):
    a = [100, 100.5, 99.5, 100, 100.2]
    assert compare.verdict(a, b, "lower", 0.1) == expected


@pytest.mark.parametrize("b, expected", [
    ([100.0, 200.0, 300.0], "same"),
    ([100.0, 201.0, 300.0], "worse"),      # 0.5% worse on one seed
    ([99.0, 200.0, 299.0], "better"),
    ([99.0, 201.0, 300.0], "worse"),       # mixed: a seed got worse
])
def test_compare_virtual_metrics_are_exact_on_the_same_seeds(b, expected):
    a = [100.0, 200.0, 300.0]
    seeds = {"w": [1, 2, 3]}
    rows = compare.compare({"w": {"virt_fork_p50_us": a}}, seeds,
                           {"w": {"virt_fork_p50_us": b}}, seeds)
    assert rows[0]["verdict"] == expected


def test_compare_virtual_metrics_use_the_bound_across_seeds():
    a = {"w": {"virt_fork_p50_us": [100.0, 100.0, 100.0]}}
    b = {"w": {"virt_fork_p50_us": [101.0, 101.0, 101.0]}}
    rows = compare.compare(a, {"w": [1, 2, 3]}, b, {"w": [4, 5, 6]})
    assert rows[0]["verdict"] == "same"


def test_compare_rows_and_exit_code(tmp_path):
    def write(i, value):
        rec = {"workload": "w", "seed": i % 10, "metrics": {
            "ops_per_s": {"value": value, "unit": "ops/s"},
            "virt_fork_p50_us": {"value": 7.0, "unit": "us"}}}
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(rec))
        return str(path)
    a = [write(i, 100 + i) for i in range(5)]
    b = [write(10 + i, 50 + i) for i in range(5)]
    a_runs, a_seeds, _ = compare.load(a)
    b_runs, b_seeds, _ = compare.load(b)
    rows = {r["metric"]: r
            for r in compare.compare(a_runs, a_seeds, b_runs, b_seeds)}
    assert rows["ops_per_s"]["verdict"] == "worse"
    assert rows["ops_per_s"]["win_rate"] == 0
    assert rows["virt_fork_p50_us"]["verdict"] == "same"
    assert compare.main(a + ["--", *b]) == 1
    assert compare.main(a) == 0


def test_run_reports_a_crashed_worker_as_a_failed_check(monkeypatch, capsys,
                                                        tmp_path):
    def crash(*args, **kwargs):
        raise run.WorkerFailed("faas-burst worker exited 1")
    monkeypatch.setattr(run, "worker", crash)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "faas-burst"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}


def test_run_refuses_without_fastpath(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert run.main(["--workload", "faas-burst"]) == 2


def test_run_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perf/run.py", "--workload",
                           "faas-burst"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
