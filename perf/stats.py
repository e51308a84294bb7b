"""Percentile helpers shared by the worker, ``run.py`` and ``compare.py``.

Stdlib only, so ``compare.py`` runs on result files without numpy or the
simulator on the path.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles, highest first.  The reported tail is the highest one
#: that still has at least ``MIN_BEYOND`` samples above it.
TAIL_CANDIDATES = (99, 90)
MIN_BEYOND = 10


def nearest_rank(ordered, pct):
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest tail percentile with >= MIN_BEYOND of ``n`` samples
    beyond it, or 50 when there are too few samples for any tail."""
    for pct in TAIL_CANDIDATES:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct
    return 50


def latency_summary(samples_ns):
    """``{p50_us, tail_us, tail_pct, n}`` of virtual latencies in ns."""
    ordered = sorted(samples_ns)
    pct = tail_percentile(len(ordered))
    return {
        "p50_us": nearest_rank(ordered, 50) / 1e3,
        "tail_us": nearest_rank(ordered, pct) / 1e3,
        "tail_pct": pct,
        "n": len(ordered),
    }


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
