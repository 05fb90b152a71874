"""Alias-method sampling from discrete distributions.

Vose's construction: O(K) setup, O(1) per draw.  Used by the frame
simulator, where every experiment repetition samples a spectral bin pair
from a large discrete distribution.
"""

import numpy as np


class AliasTable:
    """Sampler for a fixed discrete distribution over K outcomes."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must have positive total")

        k = w.size
        # Vose's loop runs on Python lists: indexing numpy scalars one at a
        # time costs more than the arithmetic.
        scaled = w * (k / total)
        small = np.flatnonzero(scaled < 1.0).tolist()
        large = np.flatnonzero(scaled >= 1.0).tolist()
        scaled = scaled.tolist()
        prob = [1.0] * k
        alias = list(range(k))
        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        # Leftovers are 1.0 up to roundoff.
        for i in small + large:
            prob[i] = 1.0

        self.n_outcomes = k
        self._prob = np.array(prob)
        self._alias = np.array(alias)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` outcome indices; consumes exactly two RNG vectors."""
        idx = rng.integers(0, self.n_outcomes, size=size)
        # Only the rejected draws are gathered and replaced by their alias.  An
        # index, not a boolean mask: masked gathers and stores are slower.
        rejected = np.flatnonzero(rng.random(size) >= self._prob[idx])
        idx[rejected] = self._alias[idx[rejected]]
        return idx
