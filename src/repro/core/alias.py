"""Alias-method sampler (paper §2.3, Fig. 2(b)).

O(d) construction (Vose's algorithm), O(1) sampling. Any single-bias
update requires rebuilding the whole table — the O(d) update cost in
Table 1 that motivates BINGO. The alias table is also reused by BINGO
itself for the (tiny, K-entry) inter-group stage.
"""
from __future__ import annotations

import numpy as np

from .sampler_api import WeightArraySampler


class AliasTable:
    """Immutable alias table over a weight vector (Vose construction)."""

    __slots__ = ("prob", "alias", "total", "n")

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) == 0:
            raise ValueError("alias table needs at least one weight")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        self.n = len(w)
        self.total = float(w.sum())
        if self.total <= 0:
            raise ValueError("total weight must be positive")
        # Vose's loop runs on Python lists, whose scalar reads and writes
        # cost less than numpy's; the tables become arrays once.
        scaled = (w * (self.n / self.total)).tolist()
        prob = [1.0] * self.n
        alias = list(range(self.n))
        small = [i for i, v in enumerate(scaled) if v < 1.0]
        large = [i for i, v in enumerate(scaled) if v >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        # Leftovers are 1.0 within float error; prob already initialized.
        self.prob = np.array(prob, dtype=np.float64)
        self.alias = np.array(alias, dtype=np.int64)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Vectorized O(1)-per-draw sampling: pick bucket, then coin flip."""
        u = rng.random(size) * self.n
        j = u.astype(np.int64)
        accept = (u - j) < self.prob[j]
        return np.where(accept, j, self.alias[j])

    def pick(self, x: float, y=None, rng=None) -> int:
        """O(1) scalar draw from one uniform ``x`` by the one-uniform alias
        trick: the integer part of x·n picks the bucket and its fractional
        part is the accept coin. ``y`` and ``rng`` are unused; they match
        ``BingoVertex.pick``, so one kernel drives both."""
        u = x * self.n
        j = int(u)
        return j if (u - j) < self.prob[j] else int(self.alias[j])

    def probs(self) -> np.ndarray:
        """The probability each entry is drawn, implied by prob/alias."""
        return (self.prob + np.bincount(self.alias, 1.0 - self.prob, minlength=self.n)) / self.n

    @property
    def nbytes(self) -> int:
        return self.prob.nbytes + self.alias.nbytes


class AliasSampler(WeightArraySampler):
    """Per-vertex alias sampler with rebuild-on-update (Table 1 row 2)."""

    name = "alias"

    def _build(self) -> None:
        self._table = AliasTable(self._w.view()) if len(self._w) else None

    def _on_insert(self, bias: float) -> None:
        """O(d) rebuild on every update — the paper's point."""
        self._build()

    _on_delete = _on_insert

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._table.sample(rng, size)

    @property
    def nbytes(self) -> int:
        t = self._table.nbytes if self._table is not None else 0
        return self._w.nbytes + t
