"""Multi-core contention modelling for concurrent fork invocations.

Section 2.1 of the paper observes that fork degrades when called in
parallel even with idle cores: three concurrent 1 GB forks average 22.4 ms
each versus 6.5 ms alone.  The cause is cacheline and memory contention on
the ``struct page`` array (every fork's leaf loop reads ``compound_head``
and atomically increments refcounts on densely packed cachelines).

Two models produce that factor:

* **Emergent (preferred):** on a ``Machine(smp=N)`` the SMP scheduler
  (:mod:`repro.smp.sched`) counts how many vCPUs are actually inside the
  fork copy loop at each charge and installs that count as the cost
  model's ``contention_source``; ``k`` then rises and falls with the
  real interleaving, and lock queueing/IPI delays add on top.
* **Fitted fallback:** on a ``Machine(smp=None)`` the *contention level*
  below applies — while ``k`` forkers are declared active, the
  struct-page portion of the per-PTE cost is multiplied by
  ``1 + alpha * (k - 1)`` with ``alpha`` fitted to the paper (2.10).
  The :func:`contention_group` context manager sets and restores the
  level; ``tests/test_calibration.py`` asserts the two models agree.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import InvalidArgumentError


@contextmanager
def contention_group(cost_model, n_concurrent):
    """Declare ``n_concurrent`` concurrently-forking processes.

    Used by the Figure 2 "Concurrent (3x)" series: each measured fork runs
    with the contention level raised, which scales the struct-page charges
    exactly as shared-cacheline traffic would on real hardware.
    """
    if n_concurrent < 1:
        raise InvalidArgumentError("contention group needs at least 1 member")
    previous = cost_model.contention_level
    cost_model.contention_level = int(n_concurrent)
    try:
        yield cost_model
    finally:
        cost_model.contention_level = previous
