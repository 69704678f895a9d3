"""Rejection sampling (paper §2.3, Fig. 2(d)).

Pick a candidate uniformly, accept with probability w_i / max(w);
expected cost O(d * max(w) / Σw) per draw. Insertion is an O(1) append
(the max is updated monotonically); deletion follows Table 1's O(d)
cost because without an inverted index the max may need a rescan.
"""
from __future__ import annotations

import numpy as np

from .sampler_api import WeightArraySampler

_MAX_ROUNDS = 10_000


def rejection_draw(rng: np.random.Generator, weights: np.ndarray, max_w: float,
                   size: int) -> np.ndarray:
    """Vectorized rejection loop over a weight vector.

    ``max_w`` may be any upper bound >= true max — correctness holds,
    only the acceptance rate suffers (this is exactly how a stale max
    behaves in the real structure).
    """
    d = len(weights)
    out = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    for _ in range(_MAX_ROUNDS):
        if len(pending) == 0:
            return out
        cand = (rng.random(len(pending)) * d).astype(np.int64)
        accept = rng.random(len(pending)) * max_w < weights[cand]
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
    raise RuntimeError("rejection sampling failed to converge; check weights")


class RejectionSampler(WeightArraySampler):
    name = "rejection"

    def _build(self) -> None:
        w = self._w.view()
        self._max = float(w.max(initial=0.0))
        self._total = float(w.sum())

    def _on_insert(self, bias: float) -> None:
        self._max = max(self._max, bias)
        self._total += bias

    def _on_delete(self, bias: float) -> None:
        """O(d) when the deleted bias was the max (rescan)."""
        self._total -= bias
        if bias >= self._max:
            self._max = float(self._w.view().max(initial=0.0))

    @property
    def total_weight(self) -> float:
        return self._total

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rejection_draw(rng, self._w.view(), self._max, size)
