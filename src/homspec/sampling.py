"""Alias-method sampling from discrete distributions.

Vose's table, O(K) setup and O(1) per draw, built in closed form from
two cumulative sums with no loop over the outcomes.  The frame simulator
draws the spectral bins of its detected photons from these tables.
"""

import numpy as np


class AliasTable:
    """Sampler for a fixed discrete distribution over K outcomes."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float).ravel()
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        k = w.size
        with np.errstate(all="ignore"):
            scale = k / w.sum()
        if not 0.0 < scale < np.inf:
            raise ValueError("weights must have a positive total, with total and K / total finite")

        prob = w * scale
        # Vose's loop pairs small (prob < 1) and large outcomes in descending order: a large
        # one takes small ones' deficits until it turns small; the next one takes its own.
        small = np.flatnonzero(prob < 1.0)[::-1]
        large = np.flatnonzero(prob >= 1.0)[::-1]
        deficit = np.cumsum(1.0 - prob[small])
        excess = np.cumsum(prob[large] - 1.0)
        alias = np.arange(k)
        # A small outcome goes to the first large one whose excess covers the deficits before it.
        j = np.searchsorted(excess, deficit - (1.0 - prob[small]), "left")
        alias[small[j < large.size]] = large[j[j < large.size]]
        # A large outcome turns small at the first deficit sum above its excess sum.
        turn = np.searchsorted(deficit, excess[:-1], "right")
        turned = turn < small.size
        prob[large[:-1][turned]] = 1.0 - (deficit[turn[turned]] - excess[:-1][turned])
        alias[large[:-1][turned]] = large[1:][turned]
        # Clip roundoff; the leftovers are their own aliases, so any prob in [0, 1] serves.
        np.clip(prob, 0.0, 1.0, out=prob)

        self.n_outcomes = k
        self._prob = prob
        self._alias = alias

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` outcome indices; consumes exactly two RNG vectors."""
        idx = rng.integers(0, self.n_outcomes, size=size)
        # Only the rejected draws are gathered and replaced by their alias.  An
        # index, not a boolean mask: masked gathers and stores are slower.
        rejected = np.flatnonzero(rng.random(size) >= self._prob[idx])
        idx[rejected] = self._alias[idx[rejected]]
        return idx
