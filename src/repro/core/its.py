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
from .sampler_api import VertexSampler


class ITSampler(VertexSampler):
    name = "its"

    def __init__(self, biases) -> None:
        w = np.asarray(biases, dtype=np.float64)
        if (w < 0).any():
            raise ValueError("biases must be non-negative")
        self._w = DynArray(dtype=np.float64)
        self._w.extend(w)
        self._cdf = DynArray(dtype=np.float64)
        self._cdf.extend(np.cumsum(w))

    @property
    def degree(self) -> int:
        return len(self._w)

    @property
    def total_weight(self) -> float:
        return float(self._cdf[len(self._cdf) - 1]) if len(self._cdf) else 0.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        cdf = self._cdf.view()
        if not len(cdf):
            raise ValueError("sampling from an empty vertex")
        x = rng.random(size) * cdf[-1]
        return np.searchsorted(cdf, x, side="right").astype(np.int64)

    def insert(self, bias) -> int:
        """O(1) amortized: append w and extend the prefix sum."""
        self._w.append(float(bias))
        self._cdf.append(self.total_weight + float(bias))
        return len(self._w) - 1

    def delete(self, index: int) -> None:
        """O(d): swap-delete the weight, then rebuild the prefix sum."""
        if not 0 <= index < len(self._w):
            raise IndexError(index)
        self._w.pop_swap(index)
        w = self._w.view()
        self._cdf = DynArray(dtype=np.float64)
        self._cdf.extend(np.cumsum(w))

    def weight_of(self, index: int) -> float:
        return float(self._w[index])

    @property
    def nbytes(self) -> int:
        return self._w.nbytes + self._cdf.nbytes
