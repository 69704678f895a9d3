"""Dynamic adjacency substrate (paper §9.1: Hornet-style dynamic arrays).

This is the one graph container under every store — BINGO and the three
SOTA comparators: a per-vertex pair of dynamic arrays (destinations,
biases) plus an O(1) dst→index locate map. Edits are O(1) amortized
(append / swap-delete) and arrive as resolved batches, and each store
keeps its *sampling* structures in the same index space, so the
frameworks differ only in what they build on top of it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.batched import resolve_net_effects
from ..core.bits import check_biases
from ..core.dynarray import DynArray

_POS_ENTRY_BYTES = 16


def split_by_src(edges: pd.DataFrame):
    """Yield (src, dsts, biases) per source vertex of an edge frame,
    in ascending src order with each vertex's edges in frame order."""
    src = edges["src"].to_numpy()
    order = np.argsort(src, kind="stable")
    uniq, starts = np.unique(src[order], return_index=True)
    dsts = np.split(edges["dst"].to_numpy()[order], starts[1:])
    biases = np.split(edges["bias"].to_numpy()[order], starts[1:])
    for u, d, b in zip(uniq, dsts, biases):
        yield int(u), d, b


def edge_frame(triples) -> pd.DataFrame:
    """The (src, dst, bias) frame, sorted by (src, dst), of an iterable
    of (vertex, dsts, biases) triples — the inverse of ``split_by_src``."""
    # No triples: one empty triple, so the columns keep their dtypes.
    triples = list(triples) or [(0, np.empty(0, np.int64), np.empty(0, np.float64))]
    src = np.concatenate([np.full(len(d), u, dtype=np.int64) for u, d, _ in triples])
    dst = np.concatenate([d for _, d, _ in triples])
    bias = np.concatenate([b for _, _, b in triples])
    order = np.lexsort((dst, src))
    return pd.DataFrame({"src": src[order], "dst": dst[order], "bias": bias[order]})


class _VertexAdj:
    """One vertex's row: destinations, biases and the dst->index locate map."""

    __slots__ = ("dst", "bias", "pos")

    def __init__(self, dsts, biases):
        self.dst = DynArray.from_values(dsts, dtype=np.int64)
        self.bias = DynArray.from_values(biases, dtype=np.float64)
        self.pos = {int(v): i for i, v in enumerate(self.dst.view())}
        if len(self.pos) != len(self.dst):
            raise ValueError("duplicate destination in neighbor list")

    def append(self, dst: int, bias: float) -> int:
        """Add edge to ``dst``; returns its index (the old degree)."""
        if dst in self.pos:
            raise KeyError(f"edge to {dst} already present")
        idx = self.dst.append(dst)
        self.bias.append(bias)
        self.pos[dst] = idx
        return idx

    def delete(self, dst: int) -> int:
        """Swap-delete the edge to ``dst``; returns the vacated index,
        which the former tail now holds."""
        idx = self.pos.pop(dst)  # KeyError when absent
        moved = self.dst.pop_swap(idx)
        self.bias.pop_swap(idx)
        if moved is not None:
            self.pos[int(moved)] = idx
        return idx


class Adjacency:
    """Vertex-indexed dynamic adjacency with O(1) updates.

    ``rows`` maps each vertex that ever had an out-edge to its row."""

    def __init__(self) -> None:
        self.rows: dict[int, _VertexAdj] = {}

    @classmethod
    def from_edges(cls, edges: pd.DataFrame) -> "Adjacency":
        """Build from an edge frame; duplicate (src, dst) pairs, biases
        that are not finite and positive, and integer biases that float64
        would round raise ``ValueError``."""
        check_biases(edges["bias"])
        adj = cls()
        for u, dsts, biases in split_by_src(edges):
            adj.rows[u] = _VertexAdj(dsts, biases)
        return adj

    def row(self, u: int) -> _VertexAdj:
        """``u``'s row, created empty on first use."""
        r = self.rows.get(u)
        if r is None:
            r = self.rows[u] = _VertexAdj([], [])
        return r

    def apply(self, batch: pd.DataFrame) -> None:
        """Apply one update batch (columns op/src/dst/bias): resolve its
        net effects, which raises before any row changes, then append
        and delete per row."""
        inserts, deletes = resolve_net_effects(self.has_edge, batch)
        for u, ins in inserts.items():
            row = self.row(u)
            for dst, bias in ins:
                row.append(dst, bias)
        for u, dsts in deletes.items():
            row = self.rows[u]
            for dst in dsts:
                row.delete(dst)

    # -- queries -------------------------------------------------------------

    def vertices(self) -> np.ndarray:
        return np.array(
            sorted(u for u, r in self.rows.items() if len(r.dst) > 0), dtype=np.int64
        )

    def items(self):
        """Yield (vertex, dst view, bias view) for non-empty vertices."""
        for u, r in self.rows.items():
            if len(r.dst):
                yield u, r.dst.view(), r.bias.view()

    def neighbors(self, u: int):
        r = self.rows.get(int(u))
        if r is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return r.dst.view(), r.bias.view()

    def out_degree(self, u: int) -> int:
        r = self.rows.get(int(u))
        return 0 if r is None else len(r.dst)

    def has_edge(self, u: int, dst: int) -> bool:
        r = self.rows.get(int(u))
        return r is not None and int(dst) in r.pos

    def num_edges(self) -> int:
        return sum(len(r.dst) for r in self.rows.values())

    def edges(self) -> pd.DataFrame:
        return edge_frame(self.items())

    @property
    def nbytes(self) -> int:
        """Capacity bytes of destinations and biases, plus the locate map."""
        return sum(
            r.dst.nbytes + r.bias.nbytes + _POS_ENTRY_BYTES * len(r.pos)
            for r in self.rows.values()
        )
