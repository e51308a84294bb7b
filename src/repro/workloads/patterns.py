"""Synthetic memory-access pattern generators.

Shared by the microbenchmarks and the application simulations: sequential
sweeps, uniform-random page touches, Zipfian key popularity (what key-value
store traffic actually looks like), and hot/cold working-set splits.  All
generators are seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from ..mem.page import PAGE_SIZE


class PatternGenerator:
    """Seeded generator of page/offset access sequences over a region."""

    def __init__(self, region_bytes, seed=0):
        if region_bytes < PAGE_SIZE:
            raise InvalidArgumentError("region smaller than one page")
        self.region_bytes = int(region_bytes)
        self.n_pages = self.region_bytes // PAGE_SIZE
        self._rng = np.random.RandomState(seed)

    def sequential(self, n, start_page=0):
        """``n`` page indices in address order, wrapping at the region end."""
        return (start_page + np.arange(n)) % self.n_pages

    def uniform(self, n):
        """``n`` uniformly random page indices."""
        return self._rng.randint(0, self.n_pages, size=n)

    def zipfian(self, n, skew=1.01):
        """``n`` Zipf-distributed page indices (popular pages repeat).

        Rejection-sampled into range, matching how key-value benchmarks
        (memtier, YCSB) generate skewed key popularity.
        """
        if skew <= 1.0:
            raise InvalidArgumentError("zipf skew must exceed 1.0")
        draws = self._rng.zipf(skew, size=int(n * 1.5) + 16)
        draws = draws[draws <= self.n_pages][:n]
        while len(draws) < n:
            extra = self._rng.zipf(skew, size=n)
            draws = np.concatenate([draws, extra[extra <= self.n_pages]])[:n]
        return (draws - 1).astype(np.int64)

    def hot_cold(self, n, hot_fraction=0.1, hot_probability=0.9):
        """Hot/cold split: ``hot_probability`` of touches land in the first
        ``hot_fraction`` of pages."""
        if not 0 < hot_fraction <= 1 or not 0 <= hot_probability <= 1:
            raise InvalidArgumentError("invalid hot/cold parameters")
        hot_pages = max(1, int(self.n_pages * hot_fraction))
        is_hot = self._rng.random_sample(n) < hot_probability
        hot = self._rng.randint(0, hot_pages, size=n)
        cold = self._rng.randint(hot_pages, max(hot_pages + 1, self.n_pages), size=n)
        return np.where(is_hot, hot, cold)


def touch_pages(process, base, page_indices, write, bytes_per_touch=64):
    """Touch each listed page once through the fast access path."""
    for page in np.asarray(page_indices).tolist():
        process.touch(base + page * PAGE_SIZE, bytes_per_touch, write=write)
