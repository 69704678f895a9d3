"""Weighted reservoir sampling — FlowWalker's method (paper §6.2/§7.3).

FlowWalker keeps no auxiliary sampling structure: every draw scans the
full neighbor list with an Efraimidis–Spirakis weighted reservoir
(equivalently, the Gumbel-max trick over log-weights), giving O(d) work
per sample. Updates are trivially cheap (there is nothing to maintain),
which is exactly the trade-off Table 3 exposes: FlowWalker collapses on
the high-degree Twitter graph while its update path stays fast.
"""
from __future__ import annotations

import numpy as np

from .sampler_api import WeightArraySampler

# Bound the (draws x degree) scratch matrix of the vectorized scan.
_CHUNK_CELLS = 4_000_000


def reservoir_draw(rng: np.random.Generator, weights: np.ndarray, size: int) -> np.ndarray:
    """O(d) per draw: argmax of Gumbel-perturbed log-weights.

    P(argmax == i) = w_i / Σw — the same distribution as Eq. 2, with the
    per-draw full scan that defines reservoir sampling's cost model.
    """
    d = len(weights)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    out = np.empty(size, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(1, d))
    for lo in range(0, size, step):
        hi = min(size, lo + step)
        g = rng.gumbel(size=(hi - lo, d))
        out[lo:hi] = np.argmax(logw[None, :] + g, axis=1)
    return out


class ReservoirSampler(WeightArraySampler):
    """Keeps nothing beyond the weights, so an update is only the swap."""

    name = "reservoir"

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return reservoir_draw(rng, self._w.view(), size)
