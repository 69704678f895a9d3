"""Rejection sampling (paper §2.3, Fig. 2(d)).

Pick a candidate uniformly, accept with probability w_i / max(w);
expected cost O(d * max(w) / Σw) per draw. Insertion is an O(1) append
(the max is updated monotonically); deletion follows Table 1's O(d)
cost because without an inverted index the max may need a rescan.
``rejection_loop`` is the one vectorized rejection loop; BINGO's
``DenseGroup.sample`` (bit test) uses it too. ``MAX_ROUNDS`` caps every
rejection draw, vectorized or scalar.
"""
from __future__ import annotations

import numpy as np

from .sampler_api import WeightArraySampler

MAX_ROUNDS = 10_000


def rejection_loop(rng: np.random.Generator, size: int, d: int, accept) -> np.ndarray:
    """The vectorized rejection loop: ``size`` draws of an index in
    [0, d). Each round proposes one uniform candidate per pending draw
    and keeps those the ``accept(cand)`` mask passes."""
    out = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    for _ in range(MAX_ROUNDS):
        if len(pending) == 0:
            return out
        cand = (rng.random(len(pending)) * d).astype(np.int64)
        ok = accept(cand)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    raise RuntimeError("rejection sampling failed to converge")


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
        """Accept candidate i with probability w_i / max(w)."""
        w, max_w = self._w.view(), self._max
        return rejection_loop(rng, size, len(w), lambda c: rng.random(len(c)) * max_w < w[c])
