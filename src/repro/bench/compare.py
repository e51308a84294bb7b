"""The CI perf-regression gate: current bench JSON vs a committed baseline.

``python -m repro.bench --smoke --json BENCH_SMOKE.json`` dumps every
experiment table; this module extracts a small set of **tracked metrics**
from that payload — the paper's headline numbers — and compares them
against ``benchmarks/baseline.json``:

* fig7 fork / odfork invocation latency and the speedup ratio at 1 GB
  (the Figure 2/7 headline),
* Table 1 worst-case fault cost for all three variants,
* the ext-reclaim fork-server p99 under 2x overcommit,
* the fleet-wide p99 under staggered odfork snapshot waves,
* the 100 GB-heap odfork point (fig7 showcase row, smoke only),
* which path ran: the fast-path engagement counts of the fig7 and faas
  experiments (the ``fastpath`` table; fig7's include the 100 GB
  showcase machine).

A latency or ratio *regresses* when it moves in its bad direction
(latencies up, speedups down) by more than ``--threshold`` (default 25%).
The virtual clock makes these numbers deterministic on every host, so a
tight threshold is safe: real regressions show up as cost-model or
algorithm changes, not machine noise.  Improvements beyond the threshold
are reported (so the baseline gets refreshed) but do not fail the gate.

The engagement counts are gated exactly: any change fails.  The analytic
fast path and the per-event walks charge identical virtual time by
design, so only these counts see the fast path silently disengage.  The
smoke's host wall-clock (the ``bench`` table) stays in the payload as a
report; nothing gates on it.  A baseline key that no tracked metric
reads fails the gate too, so a retired metric's row cannot linger
unchecked.

Usage::

    python -m repro.bench.compare BENCH_SMOKE.json benchmarks/baseline.json
    python -m repro.bench.compare BENCH_SMOKE.json baseline.json --write-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

DEFAULT_THRESHOLD = 0.25

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"
EXACT = "exact"   # a count: any change regresses


@dataclass(frozen=True)
class Metric:
    """One tracked benchmark number."""

    key: str           # "fig7.odfork_ms@1gb"
    exp_id: str        # table the value lives in
    row_match: tuple   # (column header, value) identifying the row
    column: str        # column header of the metric cell
    direction: str     # LOWER_IS_BETTER / HIGHER_IS_BETTER / EXACT


#: Which path ran, counted by the kernel (repro.bench's ``fastpath``
#: table): a fast path that stops engaging moves no virtual-clock number,
#: only these counts.  A bail moves its unit from engaged to bailed, so
#: the engaged counts alone catch every one.
ENGAGEMENT = tuple(
    Metric(f"fastpath.{column}@{exp_id}", "fastpath", ("experiment", exp_id),
           column, EXACT)
    for exp_id in ("fig7", "faas")
    for column in ("fill_engaged", "fork_engaged", "exit_engaged")
)

TRACKED = (
    Metric("fig7.fork_ms@1gb", "fig7", ("size_gb", 1), "fork_ms",
           LOWER_IS_BETTER),
    Metric("fig7.odfork_ms@1gb", "fig7", ("size_gb", 1), "odfork_ms",
           LOWER_IS_BETTER),
    Metric("fig7.speedup_x@1gb", "fig7", ("size_gb", 1), "speedup_x",
           HIGHER_IS_BETTER),
    Metric("table1.fork_fault_ms", "table1", ("type", "Fork"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("table1.huge_fault_ms", "table1", ("type", "Fork w/ huge pages"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("table1.odfork_fault_ms", "table1", ("type", "On-demand-fork"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("ext-reclaim.p99_us@2x", "ext-reclaim", ("heap/RAM", "2.0x"),
           "p99 (us)", LOWER_IS_BETTER),
    Metric("fleet.p99_ms@staggered-odfork", "fleet",
           ("config", "staggered/odfork"), "p99_ms", LOWER_IS_BETTER),
    Metric("faas.cold_start_p99_us", "faas", ("flavor", "odfork"),
           "cold_start_p99_us", LOWER_IS_BETTER),
    Metric("faas.density_fn_per_gb", "faas", ("flavor", "odfork"),
           "density_fn_per_gb", HIGHER_IS_BETTER),
    Metric("numa.odfork_speedup@replicated", "fig7-numa",
           ("mode", "numa-replicated"), "odfork_speedup_x",
           HIGHER_IS_BETTER),
    # The beyond-the-paper showcase: odfork latency on a 100 GB heap,
    # only feasible in a smoke run because the analytic fast path builds
    # and shares the 51200 leaf tables vectorised.
    Metric("fig7.odfork_ms@100gb", "fig7", ("size_gb", 100), "odfork_ms",
           LOWER_IS_BETTER),
    *ENGAGEMENT,
)


class MetricMissing(KeyError):
    """A tracked metric could not be located in a payload."""


def extract_metric(payload, metric):
    """Pull one tracked value out of a ``--json`` payload (list of tables)."""
    table = next((t for t in payload if t.get("exp_id") == metric.exp_id),
                 None)
    if table is None:
        raise MetricMissing(f"{metric.key}: no table {metric.exp_id!r}")
    headers = table["headers"]
    match_col, match_value = metric.row_match
    try:
        match_idx = headers.index(match_col)
        value_idx = headers.index(metric.column)
    except ValueError as exc:
        raise MetricMissing(f"{metric.key}: {exc}") from None
    for row in table["rows"]:
        if row[match_idx] == match_value:
            return float(row[value_idx])
    raise MetricMissing(
        f"{metric.key}: no row with {match_col}={match_value!r}")


def extract_all(payload, metrics=TRACKED):
    """``{metric key: value}`` for every tracked metric in ``payload``."""
    return {m.key: extract_metric(payload, m) for m in metrics}


@dataclass
class Delta:
    """One metric's movement between baseline and current run."""

    key: str
    direction: str
    baseline: float
    current: float
    gate: float = DEFAULT_THRESHOLD   # effective threshold for this metric

    @property
    def ratio(self):
        """current/baseline (1.0 = unchanged; guards a zero baseline)."""
        if self.baseline == 0:
            return 1.0 if self.current == 0 else float("inf")
        return self.current / self.baseline

    def regressed(self, threshold=None):
        threshold = self.gate if threshold is None else threshold
        if self.direction == EXACT:
            return self.current != self.baseline
        if self.direction == LOWER_IS_BETTER:
            return self.ratio > 1.0 + threshold
        return self.ratio < 1.0 - threshold

    def improved(self, threshold=None):
        threshold = self.gate if threshold is None else threshold
        if self.direction == EXACT:
            return False
        if self.direction == LOWER_IS_BETTER:
            return self.ratio < 1.0 - threshold
        return self.ratio > 1.0 + threshold


def compare_payloads(current_payload, baseline_values,
                     threshold=DEFAULT_THRESHOLD, metrics=TRACKED):
    """Compare a bench payload against baseline values.

    ``baseline_values`` is ``{metric key: value}`` (the committed
    baseline file's ``metrics`` object).  Returns
    ``(deltas, regressions)``; a tracked metric missing on either side is
    itself a regression — the gate must never silently narrow — and so is
    a stale baseline key that no tracked metric reads.
    """
    deltas = []
    regressions = []
    current = {}
    for metric in metrics:
        try:
            current[metric.key] = extract_metric(current_payload, metric)
        except MetricMissing as exc:
            regressions.append(str(exc))
    for metric in metrics:
        if metric.key not in current:
            continue
        if metric.key not in baseline_values:
            regressions.append(
                f"{metric.key}: not in baseline (re-seed the baseline)")
            continue
        delta = Delta(metric.key, metric.direction,
                      float(baseline_values[metric.key]),
                      current[metric.key], gate=threshold)
        deltas.append(delta)
        if not delta.regressed():
            continue
        if metric.direction == EXACT:
            regressions.append(
                f"{delta.key}: {delta.baseline:.10g} -> "
                f"{delta.current:.10g} (counts are gated exactly)")
            continue
        worse = "slower" if metric.direction == LOWER_IS_BETTER else "lower"
        regressions.append(
            f"{delta.key}: {delta.baseline:.4g} -> {delta.current:.4g} "
            f"({delta.ratio:.2f}x, {worse} than the {threshold:.0%} gate)")
    tracked = {metric.key for metric in metrics}
    regressions += [f"{key}: stale baseline entry, no tracked metric reads "
                    f"it (remove it)"
                    for key in baseline_values if key not in tracked]
    return deltas, regressions


def format_delta_table(deltas, threshold=DEFAULT_THRESHOLD):
    """The human-readable delta table printed in CI logs."""
    width = max([26] + [len(d.key) for d in deltas])
    lines = [f"{'metric':<{width}} {'baseline':>12} {'current':>12} "
             f"{'ratio':>7}  verdict"]
    for d in deltas:
        if d.regressed():
            verdict = "REGRESSED"
        elif d.improved():
            verdict = "improved (refresh baseline?)"
        else:
            verdict = "ok"
        lines.append(f"{d.key:<{width}} {d.baseline:>12.6g} "
                     f"{d.current:>12.6g} {d.ratio:>6.2f}x  {verdict}")
    return "\n".join(lines)


def format_delta_markdown(deltas, regressions, threshold=DEFAULT_THRESHOLD):
    """The GitHub-step-summary view: a markdown table plus the verdict.

    Written on success *and* failure so a red gate shows the per-metric
    old/new/delta numbers right on the run page, not buried in logs.
    """
    lines = ["### Perf gate: tracked bench metrics", "",
             "| metric | baseline | current | ratio | verdict |",
             "| --- | ---: | ---: | ---: | --- |"]
    for d in deltas:
        if d.regressed():
            verdict = ":x: regressed"
        elif d.improved():
            verdict = ":chart_with_upwards_trend: improved"
        else:
            verdict = ":white_check_mark: ok"
        lines.append(f"| `{d.key}` | {d.baseline:.6g} | {d.current:.6g} "
                     f"| {d.ratio:.2f}x | {verdict} |")
    lines.append("")
    missing = [r for r in regressions if "->" not in r]
    for line in missing:
        lines.append(f"- :x: {line}")
    if regressions:
        lines.append(f"\n**{len(regressions)} tracked metric(s) failed the "
                     f"{threshold:.0%} gate.**")
    else:
        lines.append(f"\nAll {len(deltas)} tracked metrics within the "
                     f"{threshold:.0%} gate.")
    return "\n".join(lines) + "\n"


def write_step_summary(deltas, regressions, threshold=DEFAULT_THRESHOLD):
    """Append the markdown delta table to ``$GITHUB_STEP_SUMMARY``.

    A no-op outside GitHub Actions; never raises (a broken summary file
    must not mask the gate's real exit code).
    """
    import os
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return False
    try:
        with open(path, "a") as fh:
            fh.write(format_delta_markdown(deltas, regressions, threshold))
        return True
    except OSError:
        return False


def write_baseline(payload, path, metrics=TRACKED):
    """Seed/refresh a baseline file from a bench ``--json`` payload."""
    values = extract_all(payload, metrics)
    doc = {
        "comment": "Tracked benchmark baselines for the CI perf gate "
                   "(repro.bench.compare). Regenerate with: "
                   "python -m repro.bench --smoke --json BENCH_SMOKE.json "
                   "&& python -m repro.bench.compare BENCH_SMOKE.json "
                   f"{path} --write-baseline",
        "threshold": DEFAULT_THRESHOLD,
        "metrics": values,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Gate tracked bench metrics against a committed "
                    "baseline (exit 1 on regression).")
    parser.add_argument("current", help="bench --json output to check")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=None,
                        help="regression gate as a fraction "
                             f"(default: baseline file's, else "
                             f"{DEFAULT_THRESHOLD})")
    parser.add_argument("--write-baseline", action="store_true",
                        help="(re)seed the baseline from the current "
                             "payload instead of comparing")
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        payload = json.load(fh)

    if args.write_baseline:
        values = write_baseline(payload, args.baseline)
        print(f"seeded {len(values)} tracked metrics into {args.baseline}")
        for key, value in values.items():
            print(f"  {key:<26} {value:.4g}")
        return 0

    with open(args.baseline) as fh:
        baseline_doc = json.load(fh)
    threshold = args.threshold
    if threshold is None:
        threshold = float(baseline_doc.get("threshold", DEFAULT_THRESHOLD))

    deltas, regressions = compare_payloads(
        payload, baseline_doc.get("metrics", {}), threshold=threshold)
    print(format_delta_table(deltas, threshold))
    write_step_summary(deltas, regressions, threshold)
    if regressions:
        print(f"\n{len(regressions)} tracked metric(s) regressed beyond "
              f"the {threshold:.0%} gate:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {len(deltas)} tracked metrics within the "
          f"{threshold:.0%} gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
