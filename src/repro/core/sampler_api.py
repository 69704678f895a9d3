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
"""
from __future__ import annotations

import abc

import numpy as np


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
        """Bytes held by the sampling structure (Table 1 memory column)."""
