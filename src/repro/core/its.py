"""Inverse Transform Sampling (paper §2.3, Fig. 2(c)).

The CDF array C is the prefix sum of biases; a draw is a uniform in
[0, C_d) resolved by binary search — O(log d) sampling. Insertion is an
O(1) amortized append (extend the prefix sum); deletion invalidates the
prefix structure and costs an O(d) rebuild. This matches Table 1's ITS
row exactly.
"""
from __future__ import annotations

import numpy as np

from .dynarray import DynArray
from .sampler_api import WeightArraySampler


class ITSampler(WeightArraySampler):
    name = "its"

    def _build(self) -> None:
        self._cdf = DynArray(dtype=np.float64)
        self._cdf.extend(np.cumsum(self._w.view()))

    def _on_insert(self, bias: float) -> None:
        """O(1) amortized: extend the prefix sum."""
        self._cdf.append(self.total_weight + bias)

    def _on_delete(self, bias: float) -> None:
        """O(d): rebuild the prefix sum over the swap-deleted weights."""
        self._build()

    @property
    def total_weight(self) -> float:
        return float(self._cdf[len(self._cdf) - 1]) if len(self._cdf) else 0.0

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cdf = self._cdf.view()
        x = rng.random(size) * cdf[-1]
        return np.searchsorted(cdf, x, side="right").astype(np.int64)

    @property
    def nbytes(self) -> int:
        return self._w.nbytes + self._cdf.nbytes
