"""Measurement-noise model for benchmark realism.

The paper reports averages, minima, and standard deviations over repeated
runs (e.g. 1 GB forks: 6.5 ms average, 5.4 ms minimum).  Real measurements
vary because of cache state, interrupts, and scheduling.  The simulator is
deterministic, so benchmarks opt into a seeded multiplicative noise model
that produces realistic spreads while keeping results reproducible run to
run.  Unit tests leave noise disabled.

The distribution is a clipped lognormal: most charges land within a few
percent of nominal, with a configurable-probability positive spike tail
modelling interrupts and hard page-fault stalls.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class NoiseModel:
    """Seeded multiplicative noise applied to individual cost charges.

    Parameters
    ----------
    seed:
        RNG seed; two models with the same seed perturb identically.
    sigma:
        Lognormal shape parameter.  ``0.05`` gives run-to-run spreads of a
        few percent, matching the paper's reported avg/min gaps.
    spike_prob:
        Probability that a charge additionally suffers a positive spike.
    spike_scale:
        Mean relative magnitude of a spike (exponential distributed).
    """

    def __init__(self, seed=0, sigma=0.05, spike_prob=0.0, spike_scale=0.5):
        if sigma < 0 or spike_prob < 0 or spike_prob > 1:
            raise ConfigurationError("invalid noise parameters")
        self._rng = np.random.RandomState(seed)
        self.sigma = float(sigma)
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)
        # Buffer draws to keep per-charge overhead low: numpy RNG calls are
        # expensive one at a time but nearly free in batches.
        self._buffer = np.empty(0)
        self._pos = 0

    def _refill(self, n=4096):
        draws = self._rng.lognormal(mean=0.0, sigma=self.sigma, size=n)
        if self.spike_prob > 0:
            spikes = self._rng.random_sample(n) < self.spike_prob
            draws = draws + spikes * self._rng.exponential(self.spike_scale, size=n)
        self._buffer = draws
        self._pos = 0

    def perturb(self, ns):
        """Return ``ns`` scaled by one noise draw."""
        if self.sigma == 0 and self.spike_prob == 0:
            return ns
        if self._pos >= len(self._buffer):
            self._refill()
        # ``item`` hands back a Python float: the product is the same
        # IEEE double, and ``charge`` rounds it several times faster than
        # a numpy scalar.
        factor = self._buffer.item(self._pos)
        self._pos += 1
        return ns * factor

    def take(self, n):
        """Consume ``n`` draws exactly as ``n`` ``perturb`` calls would.

        Returns a length-``n`` factor array, or ``None`` when the model is
        configured silent (``perturb`` short-circuits without consuming a
        draw).  Buffer refills happen at the same points a sequential
        per-charge consumer would hit them, so the underlying RNG stream —
        which ``syscall_jitter`` also reads — stays bit-identical between
        the per-event and the batched charge paths.
        """
        if self.sigma == 0 and self.spike_prob == 0:
            return None
        out = np.empty(n)
        filled = 0
        while filled < n:
            if self._pos >= len(self._buffer):
                self._refill()
            take = min(len(self._buffer) - self._pos, n - filled)
            out[filled:filled + take] = self._buffer[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out

    def syscall_jitter(self):
        """One-sided relative overrun for a whole syscall invocation.

        Per-charge noise averages out over the thousands of charges inside
        a large fork, but real invocations vary run to run (interrupts,
        cache state): the paper reports a 5.4 ms minimum against a 6.5 ms
        average for 1 GB forks.  This draw adds a correlated, non-negative
        overrun to one invocation; the calibrated constants remain the
        fast-path (minimum-ish) latency.
        """
        draw = float(self._rng.lognormal(0.0, max(self.sigma * 2.5, 1e-9)))
        return max(0.0, draw - 1.0)

    def uniform(self, low, high):
        """Convenience seeded uniform draw for workload generators."""
        return float(self._rng.uniform(low, high))

    def randint(self, low, high):
        """Convenience seeded integer draw in ``[low, high)``."""
        return int(self._rng.randint(low, high))
