"""Shared scaffolding of the simulated SOTA comparators (paper §6.2).

KnightKing, gSampler, and FlowWalker only support static (or streaming-
reload) graphs, so the paper "reload[s] or reconstruct[s] the
corresponding structure after each round of updates". Every comparator
here follows that protocol: a Hornet-style dynamic adjacency absorbs the
update batch cheaply, then ``rebuild()`` reconstructs the engine's
per-vertex sampling structures from scratch — the O(E)-per-round cost
BINGO's incremental updates avoid.

All comparators expose the same engine surface as ``BingoStore``
(apply_batch / sample_next / has_edge / edge_share / vertices / edges /
memory_bytes),
so the one walk engine and the one Table 3 loop drive every framework.
Each differs in its ``rebuild`` and its draw. KnightKing's alias draw is
O(1), so it steps each walker on its own through BINGO's per-walker
kernel (``core.store.draw_each``). gSampler's and FlowWalker's draws
cost O(d) a vertex; they implement ``draw``, and the default
``sample_next`` groups the walkers by vertex (``core.store.dispatch``)
so one draw serves all of a vertex's walkers.
"""
from __future__ import annotations

import abc

import numpy as np
import pandas as pd

from ..core.store import dispatch, edge_shares
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

    def edge_share(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """w(u→x)/W(u) for each pair (u, x) of ``src`` and ``dst``, 0 where
        there is no edge, with W(u) from ``row_total``."""
        rows = self.adj.rows
        return edge_shares(src, dst, rows,
                           lambda u, i: rows[u].bias._buf[i] / self.row_total(u))

    def row_total(self, u: int) -> float:
        """W(u), the sum of ``u``'s biases: an O(d) scan of its row, which
        engines with no per-vertex total pay within their O(d) draws."""
        return float(self.adj.rows[u].bias.view().sum())

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next hop per walker (-1 for dead ends): one ``draw`` per
        occupied vertex, through the vertex-grouping ``dispatch`` kernel."""
        rows = self.adj.rows
        return dispatch(cur, rows, lambda u, m: self.draw(u, rows[u].bias.view(), rng, m))

    def draw(self, u: int, biases: np.ndarray, rng: np.random.Generator, m: int):
        """Indices into ``u``'s neighbor list of ``m`` draws ∝ ``biases``;
        an int when ``m == 1``. A store that overrides ``sample_next``
        needs none."""
        raise NotImplementedError

    @abc.abstractmethod
    def structure_nbytes(self) -> int:
        """Bytes of the sampling structures (excluding the adjacency)."""

    def memory_bytes(self) -> tuple[int, int]:
        return self.adj.nbytes, self.structure_nbytes()
