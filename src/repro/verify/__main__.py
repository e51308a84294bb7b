"""CLI driver: ``python -m repro.verify --traces N --seed S [--failpoints]``.

Generates (or replays) traces, runs the differential oracle on each, and
optionally sweeps every fail-point hit.  Failing traces are ddmin-shrunk
and written to the regression corpus so CI replays them forever.

Exit status: 0 when every trace is clean, 1 on any hard finding.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .oracle import (check_trace, check_trace_equivalence, check_trace_numa,
                     check_trace_sanitized, check_trace_traced,
                     enumerate_equivalence_failpoints, enumerate_failpoints,
                     enumerate_numa_failpoints, is_hard)
from .shrink import shrink_trace
from .trace import generate_trace, load_trace, save_trace


def _collect_traces(args):
    if args.replay:
        path = Path(args.replay)
        if path.is_dir():
            files = sorted(path.glob("*.json"))
        elif path.is_file():
            files = [path]
        else:
            raise SystemExit(f"no such trace file or directory: {path}")
        if not files:
            raise SystemExit(f"no *.json traces found in {path}")
        return [(f.stem, load_trace(f)) for f in files]
    return [(f"seed{args.seed + i}",
             generate_trace(args.seed + i, n_ops=args.ops))
            for i in range(args.traces)]


def _shrink_predicate(args, pair):
    """Re-check a candidate for the same class of failure (same pair).

    The SMP leg only reruns when the original finding came from it, which
    keeps shrinking to two machine builds per evaluation.
    """
    needs_smp = pair.startswith("smp")

    def predicate(candidate):
        findings = check_trace(candidate, smp=args.smp,
                               include_smp=needs_smp)
        return any(is_hard(f) and f.pair == pair for f in findings)

    return predicate


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="differential conformance + fault-injection harness")
    parser.add_argument("--traces", type=int, default=20,
                        help="number of random traces (default 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; trace i uses seed+i (default 0)")
    parser.add_argument("--ops", type=int, default=32,
                        help="ops per generated trace (default 32)")
    parser.add_argument("--smp", type=int, default=2,
                        help="virtual CPUs for the SMP leg (default 2)")
    parser.add_argument("--no-smp", action="store_true",
                        help="skip the smp-vs-plain differential leg")
    parser.add_argument("--failpoints", action="store_true",
                        help="sweep fail-point hits per trace")
    parser.add_argument("--sanitize", action="store_true",
                        help="re-run each trace under KASAN (frame "
                             "poisoning/quarantine) and KCSAN (SMP data "
                             "races)")
    parser.add_argument("--trace-audit", action="store_true",
                        help="re-run each trace with a ktrace tracer "
                             "attached and fail on any observable "
                             "divergence (tracing must be side-effect "
                             "free)")
    parser.add_argument("--numa", action="store_true",
                        help="run the NUMA differential leg: flat vs "
                             "NUMA-shared vs Mitosis-replicated machines "
                             "(every odfork replica policy) must agree on "
                             "all observables, tear down leak-free, and "
                             "unwind the NUMA fail-point sites cleanly")
    parser.add_argument("--numa-nodes", type=int, default=2,
                        help="nodes for the NUMA leg's topology (default 2)")
    parser.add_argument("--equivalence", action="store_true",
                        help="run the analytic-fast-path leg: paired "
                             "fastpath-on vs per-event machines per fork "
                             "flavor must agree on outcomes, digests, RSS, "
                             "vmstat, audits and the virtual clock, and "
                             "armed failpoints must unwind identically on "
                             "both")
    parser.add_argument("--max-failpoint-hits", type=int, default=4,
                        help="armed runs per site; sampled beyond this "
                             "(default 4)")
    parser.add_argument("--exhaustive-failpoints", action="store_true",
                        help="arm every recorded hit of every site")
    parser.add_argument("--fleet", action="store_true",
                        help="run the cluster fault-injection leg: arm "
                             "each fleet fail-point site over small "
                             "staggered and drain fleet campaigns and "
                             "assert conserved accounting, clean audits, "
                             "clean teardown")
    parser.add_argument("--faas", action="store_true",
                        help="run the serverless-farm leg: unarmed "
                             "baseline, fork-vs-odfork differential over "
                             "one schedule, and an armed sweep of every "
                             "faas fail-point site — conservation, clean "
                             "audits, memory back to pre-deploy levels")
    parser.add_argument("--replay", metavar="PATH",
                        help="replay a trace file or directory of *.json "
                             "instead of generating")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without ddmin-shrinking them")
    parser.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk failures are written")
    args = parser.parse_args(argv)

    traces = _collect_traces(args)
    started = time.perf_counter()
    hard_findings = 0
    oom_warnings = 0
    failpoint_runs = 0
    failpoint_sampled_out = 0

    for index, (name, trace) in enumerate(traces):
        findings = check_trace(trace, smp=args.smp,
                               include_smp=not args.no_smp)
        hard = [f for f in findings if is_hard(f)]
        oom_warnings += len(findings) - len(hard)
        if hard:
            hard_findings += len(hard)
            print(f"FAIL {name} ({len(trace['ops'])} ops): {hard[0]}")
            if not args.no_shrink:
                shrunk = shrink_trace(
                    trace, _shrink_predicate(args, hard[0].pair))
                out = save_trace(
                    shrunk, Path(args.corpus_dir) / f"shrunk-{name}.json")
                print(f"  shrunk to {len(shrunk['ops'])} ops "
                      f"({shrunk['shrink_evals']} evaluations) -> {out}")

        if args.sanitize:
            san_findings = check_trace_sanitized(trace, smp=args.smp)
            if san_findings:
                hard_findings += len(san_findings)
                for finding in san_findings[:4]:
                    print(f"FAIL {name}: {finding}")

        if args.trace_audit:
            trace_findings = check_trace_traced(trace)
            if trace_findings:
                hard_findings += len(trace_findings)
                for finding in trace_findings[:4]:
                    print(f"FAIL {name}: {finding}")

        if args.numa:
            numa_findings = check_trace_numa(trace, nodes=args.numa_nodes)
            nfp_findings, nfp_meta = enumerate_numa_failpoints(
                trace, nodes=args.numa_nodes,
                max_hits_per_site=args.max_failpoint_hits)
            numa_findings += nfp_findings
            failpoint_runs += nfp_meta["runs"]
            failpoint_sampled_out += nfp_meta["sampled_out"]
            if numa_findings:
                hard_findings += len(numa_findings)
                for finding in numa_findings[:4]:
                    print(f"FAIL {name}: {finding}")

        if args.equivalence:
            eq_findings = check_trace_equivalence(trace, smp=args.smp)
            efp_findings, efp_meta = enumerate_equivalence_failpoints(
                trace, max_hits_per_site=args.max_failpoint_hits)
            eq_findings += efp_findings
            failpoint_runs += efp_meta["runs"]
            failpoint_sampled_out += efp_meta["sampled_out"]
            if eq_findings:
                hard_findings += len(eq_findings)
                for finding in eq_findings[:4]:
                    print(f"FAIL {name}: {finding}")

        if args.failpoints:
            max_hits = (None if args.exhaustive_failpoints
                        else args.max_failpoint_hits)
            fp_findings, meta = enumerate_failpoints(
                trace, max_hits_per_site=max_hits)
            failpoint_runs += meta["runs"]
            failpoint_sampled_out += meta["sampled_out"]
            if fp_findings:
                hard_findings += len(fp_findings)
                for finding in fp_findings[:4]:
                    print(f"FAIL {name}: {finding}")

        done = index + 1
        if done % 10 == 0 or done == len(traces):
            elapsed = time.perf_counter() - started
            print(f"  [{done}/{len(traces)}] traces checked, "
                  f"{elapsed:.1f}s elapsed")

    if args.fleet:
        from .fleet import check_fleet
        fleet_findings, fleet_meta = check_fleet(
            seed=args.seed, max_hits_per_site=args.max_failpoint_hits)
        hard_findings += len(fleet_findings)
        for finding in fleet_findings[:8]:
            print(f"FAIL fleet: {finding}")
        print(f"  fleet leg: {fleet_meta['runs']} campaigns "
              f"{fleet_meta['campaigns']}, "
              f"{fleet_meta['sampled_out']} recorded hits sampled out, "
              f"{len(fleet_findings)} findings "
              f"(sites: {fleet_meta['sites']})")

    if args.faas:
        from .faas import check_faas
        faas_findings, faas_meta = check_faas(
            seed=args.seed, max_hits_per_site=args.max_failpoint_hits)
        hard_findings += len(faas_findings)
        for finding in faas_findings[:8]:
            print(f"FAIL faas: {finding}")
        print(f"  faas leg: {faas_meta['runs']} campaigns, "
              f"{faas_meta['sampled_out']} recorded hits sampled out, "
              f"{len(faas_findings)} findings "
              f"(sites: {faas_meta['sites']})")

    elapsed = time.perf_counter() - started
    print(f"checked {len(traces)} traces in {elapsed:.1f}s: "
          f"{hard_findings} failures, {oom_warnings} OOM-asymmetry warnings"
          + (f", {failpoint_runs} fail-point runs"
             f" ({failpoint_sampled_out} hits sampled out)"
             if args.failpoints else ""))
    return 1 if hard_findings else 0


if __name__ == "__main__":
    sys.exit(main())
