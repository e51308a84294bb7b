"""Two-clock benchmark: host CPU cost beside virtual-clock results.

Usage (from the repository root)::

    python3 perf/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]

Each workload runs in its own single-threaded subprocess (``worker.py``).
Untraced (``--trace 0``) it reports the end-to-end metrics of
``BENCHMARK.json``; traced (``--trace 1``) it runs the workload twice more
in fresh subprocesses, plain and with the layer wrappers of ``tracer.py``,
demands bit-identical virtual results from the two, and reports the
per-layer metrics.  Every metric is printed with its unit and sample
count, the run record goes to ``perf/out/``, and the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: A single-workload invocation must finish within 180 s.
BUDGET_S = 175
#: Rounds of an untraced run, at least: the per-block medians need three.
MIN_ROUNDS = 3
#: The traced pair runs one round each: per-layer metrics have no bound.
TRACE_ROUNDS = 1


class WorkerFailed(Exception):
    """A worker subprocess crashed or ran out of time."""


def worker(workload, seed, seconds, min_rounds, trace_path, deadline):
    """Run ``worker.py`` in a fresh process; returns its report dict."""
    # One thread; and no huge-page advice from numpy, which makes peak RSS
    # jump by 2 MiB steps depending on where khugepaged got to.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
    cmd = [sys.executable, str(PERF / "worker.py"), workload, str(seed),
           str(seconds), str(min_rounds), str(trace_path or "-")]
    try:
        # On timeout, run() kills the worker and waits for it to end.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker ran out of time") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rep):
    """``{name: (value, sample count)}`` of the end-to-end metrics."""
    fork, odfork = rep["virt"]["fork"], rep["virt"]["odfork"]
    return {
        "ops_per_s": (rep["round_ops"] / rep["measure_s"], rep["round_ops"]),
        "setup_s": (rep["setup_s"], rep["rounds"]),
        "peak_rss_mb": (rep["peak_rss_mb"], 1),
        "virt_fork_p50_us": (fork["p50_us"], fork["n"]),
        "virt_fork_tail_us": (fork["tail_us"], fork["n"]),
        "virt_odfork_p50_us": (odfork["p50_us"], odfork["n"]),
        "virt_odfork_tail_us": (odfork["tail_us"], odfork["n"]),
        "virt_mem_mb": (rep["virt"]["mem_mb"], 1),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain, traced):
    """``{name: (value, sample count)}`` of the per-layer metrics."""
    layers = traced["layers"]
    vm = plain["vm"]
    counters = plain["counters"]
    fp_engaged = layers["kernel.fastpath.fork_engaged"] \
        + layers["kernel.fastpath.exit_engaged"]
    fp_bailed = layers["kernel.fastpath.fork_bailed"] \
        + layers["kernel.fastpath.exit_bailed"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    values = dict(layers)
    values.update({
        "kernel.fastpath.engaged_ratio": _ratio(fp_engaged,
                                                fp_engaged + fp_bailed),
        "kernel.reclaim.pgscan": vm["pgscan"],
        "kernel.reclaim.pgsteal": vm["pgsteal"],
        "kernel.reclaim.steal_ratio": _ratio(vm["pgsteal"], vm["pgscan"]),
        "kernel.reclaim.direct": vm["direct_reclaims"],
        "mem.swap.pswpout": vm["pswpout"],
        "mem.swap.pswpin": vm["pswpin"],
        "mem.swap.cache_pages_end": vm.get("swap_cache_pages", 0),
        "kernel.fault.faults": vm["page_faults"],
        "kernel.fault.cow": vm["cow_faults"],
        "kernel.fault.table_cow": vm["table_cow_copies"],
        "kernel.odfork.tables_shared": vm["tables_shared"],
        "paging.tlb.shootdowns": vm["tlb_shootdowns"],
        "paging.tlb.miss_ratio": _ratio(
            counters["paging.tlb.misses"],
            counters["paging.tlb.hits"] + counters["paging.tlb.misses"]),
        "smp.lock_wait_ms": counters.get("smp.lock_wait_ms", 0.0),
        "faas.cold": counters.get("faas.cold", 0),
        "faas.warm": counters.get("faas.warm", 0),
        "faas.resets": counters.get("faas.resets", 0),
        "cluster.waves": counters.get("cluster.waves", 0),
        "cluster.reroutes": counters.get("cluster.reroutes", 0),
        "trace.overhead_x": _ratio(traced["timed_s"], plain["timed_s"]),
        "trace.spans": traced["spans"],
        "trace.coverage": _ratio(self_total, traced["timed_cpu_s"]),
        "run.wall_s": plain["measure_wall_s"],
    })
    return {name: (value, traced["rounds"]) for name, value in values.items()}


def virtual_view(rep):
    """The parts of a report the virtual clock alone determines."""
    return {k: rep[k] for k in ("virt", "vm", "counters", "attempted",
                                "failed")}


def run_one(workload, seed, seconds, trace, deadline):
    """One workload: returns the run record."""
    problems = []
    if trace:
        trace_path = OUT / f"{workload}.trace.json"
        plain = worker(workload, seed, 0, TRACE_ROUNDS, None, deadline)
        traced = worker(workload, seed, 0, TRACE_ROUNDS, trace_path, deadline)
        if virtual_view(plain) != virtual_view(traced):
            problems.append("traced run differs from untraced run on a "
                            "virtual metric or vm.* counter")
        problems += plain["problems"] + traced["problems"]
        metrics = per_layer(plain, traced)
        reports = [plain, traced]
    else:
        plain = worker(workload, seed, seconds, MIN_ROUNDS, None, deadline)
        problems += plain["problems"]
        metrics = end_to_end(plain)
        reports = [plain]
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != expected:
        raise RuntimeError(f"metric set drifted from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ expected)}")
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": not problems, "problems": problems,
        "attempted": plain["attempted"], "failed": plain["failed"],
        "checks": sum(r["checks"] for r in reports),
        "metrics": {name: {"value": value, "unit": UNITS[name], "n": n}
                    for name, (value, n) in metrics.items()},
        "virt_tails": {f: plain["virt"][f]["tail_pct"]
                       for f in ("fork", "odfork")},
        "virt_variants": plain["virt_variants"],
        "reference_cpu_s": plain["reference_cpu_s"],
        "reports": reports,
    }


def failed_record(workload, seed, trace, problem):
    """The run record of a workload whose worker crashed: the workload
    counts as one attempted op, failed, and reports no metrics."""
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "correct": False, "problems": [problem], "attempted": 1,
            "failed": 1, "checks": 0, "metrics": {}, "virt_tails": {},
            "virt_variants": {}, "reference_cpu_s": None, "reports": []}


def print_record(rec):
    tails = rec["virt_tails"]
    reference = ""
    if rec["reference_cpu_s"] is not None:
        reference = f" reference={rec['reference_cpu_s'] * 1e3:.2f}ms"
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"checks={rec['checks']} correct={rec['correct']}{reference}")
    for name, m in rec["metrics"].items():
        note = ""
        if name.startswith("virt_") and name.endswith("_tail_us"):
            flavour = name.split("_")[1]
            note = f" (p{tails[flavour]})"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} "
              f"n={m['n']}{note}")
    if len(rec["virt_variants"]) > 2:
        print("  virtual latency by variant: " + ", ".join(
            f"{v} p50 {s['p50_us']:.6g} us n={s['n']}"
            for v, s in rec["virt_variants"].items()))
    for problem in rec["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_NO_FASTPATH"):
        print("refusing to run: REPRO_NO_FASTPATH is set, which would "
              "measure the per-event paths instead of the default ones",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    start = time.time()
    records = []
    for i, name in enumerate(names):
        try:
            rec = run_one(name, args.seed, args.seconds, args.trace,
                          deadline=start + BUDGET_S * (i + 1))
        except WorkerFailed as exc:
            rec = failed_record(name, args.seed, args.trace, str(exc))
        suffix = ".traced" if args.trace else ""
        (OUT / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(rec, indent=1))
        print_record(rec)
        records.append(rec)
    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": m["value"],
                                            "unit": m["unit"]}
                   for r in records for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
