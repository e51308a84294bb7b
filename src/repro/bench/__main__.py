"""Command-line experiment runner: ``python -m repro.bench [ids...]``.

Runs the requested experiments (default: everything) and prints each
paper-vs-measured table.  Useful for regenerating a single figure without
the pytest harness::

    python -m repro.bench fig7 table1
    python -m repro.bench --list
    python -m repro.bench --full fig2      # paper-scale sweep (slow)
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    ablations,
    faas_bench,
    fleet_bench,
    parallel,
    reclaim_bench,
    snapshot_bench,
    fig2,
    fig3,
    fig4,
    fig7,
    fig7_numa,
    fig8,
    fig9,
    fig10,
    primitives,
    table1,
    table2_3,
    table4_5,
    table6_7,
    thp_bench,
)
from ..core.machine import fastpath_census
from ..kernel.fastpath import FASTPATH_ENGAGED
from .runner import ExperimentResult, print_result


def _quickable(module_run):
    def run(full):
        """Quick/full dispatcher for a sweep-style experiment."""
        return module_run(quick=not full)
    return run


def _fixed(module_run, **kwargs):
    def run(full):
        """Fixed-argument dispatcher for a single-shot experiment."""
        return module_run(**kwargs)
    return run


EXPERIMENTS = {
    "fig2": _quickable(fig2.run),
    "fig2-concurrent": _quickable(fig2.run_concurrent),
    "fig3": _fixed(fig3.run),
    "fig4": _quickable(fig4.run),
    "fig7": _quickable(fig7.run),
    "fig7-numa": _quickable(fig7_numa.run),
    "fig8": _quickable(fig8.run),
    "fig9": _fixed(fig9.run, duration_s=5.0),
    "fig10": _fixed(fig10.run, duration_s=8.0),
    "table1": _fixed(table1.run),
    "table2": _fixed(table2_3.run_table2, repeats=1),
    "table3": _fixed(table2_3.run_table3, repeats=5),
    "table4": _fixed(table4_5.run_table4, n_requests=900_000),
    "table5": _fixed(table4_5.run_table5),
    "table6_7": _fixed(table6_7.run, repeats=3),
    "ablation-upper": _fixed(ablations.run_upper_level_share),
    "ablation-huge": _fixed(ablations.run_share_huge),
    "ablation-contention": _fixed(ablations.run_contention_sweep),
    "ext-parallel": _fixed(parallel.run),
    "ext-primitives": _fixed(primitives.run_invocation_latency),
    "ext-forkserver": _fixed(primitives.run_forkserver_vs_exec),
    "ext-thp": _fixed(thp_bench.run),
    "ext-snapshot": _fixed(snapshot_bench.run, duration_s=3.0),
    "ext-reclaim": _fixed(reclaim_bench.run),
    "fleet": _quickable(fleet_bench.run),
    "faas": _quickable(faas_bench.run),
}

#: Fast subset exercised by CI: one figure, one table, and the reclaim
#: extension, all at quick settings — finishes in well under a minute.
SMOKE_EXPERIMENTS = {
    "fig7": _fixed(fig7.run, quick=True, showcase=True),
    "fig7-numa": _quickable(fig7_numa.run),
    "table1": _fixed(table1.run),
    "ext-reclaim": _fixed(reclaim_bench.run, rounds=4,
                          overcommits=(0.5, 2.0)),
    "fleet": _quickable(fleet_bench.run),
    "faas": _quickable(faas_bench.run),
}


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sweeps where available (slow)")
    parser.add_argument("--concurrent", action="store_true",
                        help="with fig2: run the emergent-SMP concurrent "
                             "series (fig2-concurrent) instead")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset at quick settings")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump all results as JSON to PATH")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a kernel tracepoint timeline across "
                             "the run and export Chrome-trace JSON to PATH")
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    experiments = SMOKE_EXPERIMENTS if args.smoke else EXPERIMENTS
    selected = args.ids or list(experiments)
    if args.concurrent:
        selected = ["fig2-concurrent" if i == "fig2" else i for i in selected]
        experiments = dict(experiments)
        experiments.setdefault("fig2-concurrent",
                               EXPERIMENTS["fig2-concurrent"])
    unknown = [i for i in selected if i not in experiments]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown} "
                     f"(--list shows the valid ones)")

    tracer = None
    if args.trace:
        # Every Machine built from here on binds to the tracer; events
        # are drained and exported once the whole selection finishes.
        from ..trace import points as trace_points
        from ..trace.tracer import Tracer
        tracer = Tracer()
        trace_points.attach(tracer)

    collected = []
    timings = []
    census = []
    run_started = time.time()
    try:
        for exp_id in selected:
            started = time.time()
            with fastpath_census() as counts:
                result = experiments[exp_id](args.full)
            census.append((exp_id, counts))
            results = result if isinstance(result, tuple) else (result,)
            for item in results:
                print_result(item)
                collected.append(item)
            timings.append((exp_id, time.time() - started))
            print(f"  [{exp_id} regenerated in {timings[-1][1]:.1f}s "
                  f"host time]\n")
    finally:
        if tracer is not None:
            from ..trace import points as trace_points
            from ..trace.export import write_chrome_trace
            trace_points.detach()
            events = tracer.drain()
            n = write_chrome_trace(events, args.trace)
            print(f"wrote {n} trace entries to {args.trace} "
                  f"({tracer.emitted} emitted, {tracer.dropped} dropped)")
    collected.append(print_result(_fastpath_table(census)))
    if args.json:
        import json
        payload = [
            {"exp_id": item.exp_id, "title": item.title,
             "headers": item.headers,
             "rows": [[_jsonable(cell) for cell in row] for row in item.rows],
             "notes": item.notes}
            for item in collected
        ]
        payload.append(_harness_table(timings, time.time() - run_started,
                                      smoke=args.smoke))
        payload.append(_host_memory_table())
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(payload)} result tables to {args.json}")
    return 0


def _fastpath_table(census):
    """Which path ran: each experiment's fast-path counters, summed over
    every Machine it built.

    ``bailed`` adds up every ``<op>_bailed.<reason>`` count; the notes
    name the reasons.  The perf gate holds the fig7 and faas rows to
    exact counts (:mod:`repro.bench.compare`).
    """
    rows = []
    reasons = []
    for exp_id, counts in census:
        bails = {key: n for key, n in sorted(counts.items())
                 if "_bailed." in key}
        rows.append([exp_id, *(counts[key] for key in FASTPATH_ENGAGED),
                     sum(bails.values())])
        reasons += [f"{exp_id} {key}={n}" for key, n in bails.items()]
    return ExperimentResult(
        exp_id="fastpath", title="Fast-path engagement (counted)",
        headers=["experiment", *FASTPATH_ENGAGED, "bailed"], rows=rows,
        notes="; ".join(reasons) or "no bails")


def _harness_table(timings, total_s, smoke):
    """A pseudo-table of *host* wall-clock seconds for the --json payload.

    Unlike every other number in the payload this one is real time, not
    virtual time, so it is a report: nothing gates on it.  Whether the
    analytic fast path engaged is gated exactly on the ``fastpath``
    table instead.  Per-experiment timings ride along for triage.
    """
    rows = [[f"{exp_id}_wall_s", round(seconds, 3)]
            for exp_id, seconds in timings]
    rows.append(["smoke_wall_s" if smoke else "total_wall_s",
                 round(total_s, 3)])
    return {"exp_id": "bench", "title": "Bench harness wall-clock (host)",
            "headers": ["metric", "seconds"], "rows": rows,
            "notes": "host time; everything else in this payload is "
                     "virtual-clock deterministic"}


def _host_memory_table():
    """A pseudo-table of the process's *host* peak RSS (report-only).

    ``ru_maxrss`` is in KiB on Linux.
    """
    import resource
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exp_id": "host-memory", "title": "Bench harness peak RSS (host)",
            "headers": ["metric", "mb"],
            "rows": [["peak_rss_mb", round(peak_kib / 1024, 1)]],
            "notes": "host memory; nothing gates on it"}


def _jsonable(cell):
    try:
        import json
        json.dumps(cell)
        return cell
    except TypeError:
        return str(cell)


if __name__ == "__main__":
    sys.exit(main())
