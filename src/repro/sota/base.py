"""Shared scaffolding of the simulated SOTA comparators (paper §6.2).

KnightKing, gSampler, and FlowWalker only support static (or streaming-
reload) graphs, so the paper "reload[s] or reconstruct[s] the
corresponding structure after each round of updates". Every comparator
here follows that protocol: a Hornet-style dynamic adjacency absorbs the
update batch cheaply, then ``rebuild()`` reconstructs the engine's
per-vertex sampling structures from scratch — the O(E)-per-round cost
BINGO's incremental updates avoid.

All comparators expose the same engine surface as ``BingoStore``
(apply_batch / sample_next / has_edge / vertices / edges / memory_bytes),
so the one walk engine and the one Table 3 loop drive every framework.
They share BINGO's walker-dispatch kernel too (``core.store.dispatch``);
each differs only in its ``rebuild`` and ``draw``.
"""
from __future__ import annotations

import abc

import numpy as np
import pandas as pd

from ..core.store import dispatch
from ..graphs.dynamic_graph import Adjacency


class StaticRebuildStore(abc.ABC):
    """Base class: adjacency + rebuild-from-scratch sampling structures."""

    name = "static"

    def __init__(self, edges: pd.DataFrame) -> None:
        self.adj = Adjacency.from_edges(edges)
        self.rebuild()

    # -- update protocol -----------------------------------------------------

    def apply_batch(self, batch: pd.DataFrame) -> None:
        """Absorb one update batch, then reconstruct sampling structures
        (the per-round reload these systems require)."""
        self.adj.apply(batch)
        self.rebuild()

    @abc.abstractmethod
    def rebuild(self) -> None:
        """Reconstruct every per-vertex sampling structure from scratch."""

    # -- engine surface ------------------------------------------------------

    def vertices(self) -> np.ndarray:
        return self.adj.vertices()

    def has_edge(self, u: int, dst: int) -> bool:
        return self.adj.has_edge(u, dst)

    def edges(self) -> pd.DataFrame:
        return self.adj.edges()

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next hop per walker (-1 for dead ends), through the same
        dispatch kernel as ``BingoStore``: only ``draw`` differs."""
        rows = self.adj.rows
        return dispatch(cur, rows, lambda u, m: self.draw(u, rows[u].bias.view(), rng, m))

    @abc.abstractmethod
    def draw(self, u: int, biases: np.ndarray, rng: np.random.Generator, m: int):
        """Indices into ``u``'s neighbor list of ``m`` draws ∝ ``biases``;
        an int when ``m == 1``."""

    @abc.abstractmethod
    def structure_nbytes(self) -> int:
        """Bytes of the sampling structures (excluding the adjacency)."""

    def memory_bytes(self) -> tuple[int, int]:
        return self.adj.nbytes, self.structure_nbytes()
