"""Common interface for per-vertex biased samplers (paper Table 1 cast).

Every sampling method in the paper — BINGO, alias, ITS, rejection, and
FlowWalker's reservoir — is exposed behind one contract so the walk
engine, the complexity sweep (Table 1), and the SOTA comparison
(Table 3) can swap methods without code changes.

Index semantics: a sampler is built over a vertex's neighbor list and
returns/accepts *adjacency indices* in ``[0, d)``. ``delete(i)`` removes
index ``i`` with swap-with-tail semantics — after the call, the former
tail index ``d-1`` is renamed to ``i`` (matching ``DynArray.pop_swap``
on the adjacency itself), so the sampler and the adjacency stay aligned.

Every method rejects a bias that is not finite and positive, at build
and at insert. The Table 1 baselines share ``WeightArraySampler``'s raw
weight array and differ only in their draw and their update rule.
``BingoVertex`` samples over one raw float64 bias array too, in a store
its adjacency row's, and copies no part of it.
"""
from __future__ import annotations

import abc

import numpy as np

from .bits import check_bias, check_biases
from .dynarray import DynArray


class VertexSampler(abc.ABC):
    """Biased sampler over one vertex's neighbor biases."""

    #: Human-readable method name used in benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def __init__(self, biases) -> None:
        """Build the sampling space from the initial bias vector, O(build)."""

    @property
    @abc.abstractmethod
    def degree(self) -> int:
        """Current number of candidates d."""

    @property
    @abc.abstractmethod
    def total_weight(self) -> float:
        """Σ_i w_i — the normalizer of Eq. 2."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` indices i with P(i) = w_i / Σw (Eq. 2); raises
        ``ValueError`` while d = 0."""

    @abc.abstractmethod
    def insert(self, bias) -> int:
        """Add a candidate with the given bias; returns its new index d-1."""

    @abc.abstractmethod
    def delete(self, index: int) -> None:
        """Remove candidate ``index`` (swap-with-tail index renaming)."""

    @abc.abstractmethod
    def weight_of(self, index: int) -> float:
        """Current bias of candidate ``index`` (for invariant checks)."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes held by the sampling structure (Table 1 memory column);
        BINGO's leave out the bias array, which its adjacency row owns."""


class WeightArraySampler(VertexSampler):
    """A Table 1 baseline over the raw weight array.

    The base owns the weights, their validation, the empty-vertex check
    and swap-with-tail updates; a subclass supplies ``_draw`` and, as
    its Table 1 update rule, the ``_build``/``_on_insert``/``_on_delete``
    hooks, which run after the weight array changed."""

    def __init__(self, biases) -> None:
        self._w = DynArray(dtype=np.float64)
        self._w.extend(check_biases(biases))
        self._build()

    def _build(self) -> None:
        """Derive the sampling structure from the weights."""

    def _on_insert(self, bias: float) -> None:
        """Follow the append of ``bias``."""

    def _on_delete(self, bias: float) -> None:
        """Follow the swap-delete of ``bias``."""

    @abc.abstractmethod
    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``sample`` on a non-empty vertex."""

    @property
    def degree(self) -> int:
        return len(self._w)

    @property
    def total_weight(self) -> float:
        return float(self._w.view().sum())

    def weight_of(self, index: int) -> float:
        return float(self._w[index])

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        if not len(self._w):
            raise ValueError("sampling from an empty vertex")
        return self._draw(rng, size)

    def insert(self, bias) -> int:
        b = check_bias(bias)
        idx = self._w.append(b)
        self._on_insert(b)
        return idx

    def delete(self, index: int) -> None:
        gone = float(self._w[index])  # IndexError when out of range
        self._w.pop_swap(index)
        self._on_delete(gone)

    @property
    def nbytes(self) -> int:
        return self._w.nbytes
