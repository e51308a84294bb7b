"""Compare two sets of benchmark runs, one row per workload x metric.

Usage (from the repository root)::

    python3 perf/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 perf/compare.py A1.json A2.json ...        # summarise one set

Inputs are the run records ``run.py`` writes to ``perf/out/``.  A is the
parent, B the change; runs pair up in the order given.  For each metric
the table shows each side's median and quartiles, the change of the
median, and how many pairs B won.  Metrics with a bound in
``BENCHMARK.json`` get a verdict.

The virtual metrics (``virt_*``) are exact: a seed determines them.  When
every pair was run on the same seed, any change is a change to the
simulated results, and the verdict has no tolerance:

* ``same`` -- every B run equals its A run;
* ``worse`` -- some B run is worse than its A run;
* ``better`` -- otherwise.

Host metrics, and virtual metrics compared across different seeds, are
judged against the bound (for ``virt_*`` that bound is the seed-to-seed
tolerance):

* ``unresolved`` -- either side's run-to-run spread (quartile distance /
  median) is wider than the bound, unless every B run beats (``better``)
  or trails (``worse``) every A run;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B wins at least 9 in 10 pairs and the medians differ by
  more than A's own quartile distance;
* ``same`` -- otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
DIRECTION = {m["name"]: m["better"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def is_exact(metric):
    """Virtual metrics: the same seed gives the same value."""
    return metric.startswith("virt_")


def load(paths):
    """``{workload: {metric: [values in file order]}}``, the seeds of each
    workload's runs in file order, and units."""
    runs = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    units = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if not rec.get("correct", True):
            raise SystemExit(f"{path}: the run failed its checks")
        seeds[rec["workload"]].append(rec["seed"])
        for name, m in rec["metrics"].items():
            runs[rec["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    return runs, seeds, units


def _better(x, y, direction):
    """True when ``x`` is strictly better than ``y``."""
    return x > y if direction == "higher" else x < y


def win_rate(a, b, direction):
    """Share of the (A, B) pairs, in input order, that B wins."""
    pairs = list(zip(a, b))
    return sum(_better(y, x, direction) for x, y in pairs) / len(pairs)


def exact_verdict(a, b, direction):
    """The verdict on a virtual metric over same-seed pairs."""
    if a == b:
        return "same"
    if any(_better(x, y, direction) for x, y in zip(a, b)):
        return "worse"
    return "better"


def verdict(a, b, direction, bound):
    """The verdict of B against A within ``bound`` (see module docstring)."""
    q1a, meda, q3a = quartiles(a)
    medb = quartiles(b)[1]
    if meda:
        worse_by = (medb - meda) / abs(meda)
    else:
        worse_by = 0.0 if medb == meda else float("inf")
    if direction == "higher":
        worse_by = -worse_by
    if max(spread(a), spread(b)) > bound:
        if all(_better(y, x, direction) for x in a for y in b):
            return "better"
        if all(_better(x, y, direction) for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if win_rate(a, b, direction) >= 0.9 and -worse_by > spread(a):
        return "better"
    return "same"


def compare(a_runs, a_seeds, b_runs, b_seeds):
    """Rows ``dict(workload, metric, a=(q1, med, q3), b=..., change,
    win_rate, verdict)``; ``b`` is None when only one set was given."""
    rows = []
    for workload in a_runs:
        same_seeds = a_seeds[workload] == b_seeds.get(workload)
        for metric, a in a_runs[workload].items():
            row = {"workload": workload, "metric": metric, "n_a": len(a),
                   "a": quartiles(a), "b": None, "change": None,
                   "win_rate": None, "verdict": None}
            b = b_runs.get(workload, {}).get(metric)
            if b:
                direction = DIRECTION.get(metric, "lower")
                meda = row["a"][1]
                row["n_b"] = len(b)
                row["b"] = quartiles(b)
                row["change"] = (row["b"][1] - meda) / abs(meda) if meda else 0.0
                row["win_rate"] = win_rate(a, b, direction)
                if is_exact(metric) and same_seeds:
                    row["verdict"] = exact_verdict(a, b, direction)
                elif metric in BOUND:
                    row["verdict"] = verdict(a, b, direction, BOUND[metric])
            rows.append(row)
    return rows


def _fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None):
    # Not argparse: it swallows the "--" that separates the two sets.
    args = list(sys.argv[1:] if argv is None else argv)
    a_paths, b_paths = args, []
    if "--" in args:
        cut = args.index("--")
        a_paths, b_paths = args[:cut], args[cut + 1:]
    if not a_paths or ("--" in args and not b_paths):
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, a_seeds, units = load(a_paths)
    b_runs, b_seeds, b_units = load(b_paths)
    units.update(b_units)
    rows = compare(a_runs, a_seeds, b_runs, b_seeds)
    for row in rows:
        line = (f"{row['workload']:19s} {row['metric']:32s} "
                f"{units[row['metric']]:6s} A {_fmt(row['a'])}")
        if row["b"] is not None:
            line += (f"  B {_fmt(row['b'])}  {row['change']:+.2%}  "
                     f"wins {row['win_rate']:.0%}  {row['verdict'] or '-'}")
        print(line)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
