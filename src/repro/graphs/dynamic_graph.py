"""Dynamic adjacency substrate (paper §9.1: Hornet-style dynamic arrays).

This is the graph container shared by the SOTA comparator engines: a
per-vertex pair of dynamic arrays (destinations, biases) plus an O(1)
dst→index locate map. Updates are O(1) amortized (append / swap-delete),
exactly the substrate BINGO assumes underneath its sampling structures —
the comparators differ only in what *sampling* structure they rebuild on
top of it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.dynarray import DynArray
from .updates import OP_DELETE, OP_INSERT

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
    triples = list(triples)
    if not triples:
        return pd.DataFrame({"src": [], "dst": [], "bias": []})
    src = np.concatenate([np.full(len(d), u, dtype=np.int64) for u, d, _ in triples])
    dst = np.concatenate([d for _, d, _ in triples])
    bias = np.concatenate([b for _, _, b in triples])
    order = np.lexsort((dst, src))
    return pd.DataFrame({"src": src[order], "dst": dst[order], "bias": bias[order]})


class _VertexAdj:
    __slots__ = ("dst", "bias", "pos")

    def __init__(self, dsts, biases):
        self.dst = DynArray.from_values(dsts, dtype=np.int64)
        self.bias = DynArray.from_values(biases, dtype=np.float64)
        self.pos = {int(v): i for i, v in enumerate(self.dst.view())}


class Adjacency:
    """Vertex-indexed dynamic adjacency with O(1) updates."""

    def __init__(self) -> None:
        self._v: dict[int, _VertexAdj] = {}

    @classmethod
    def from_edges(cls, edges: pd.DataFrame) -> "Adjacency":
        adj = cls()
        for u, dsts, biases in split_by_src(edges):
            adj._v[u] = _VertexAdj(dsts, biases)
        return adj

    def insert(self, src: int, dst: int, bias: float) -> None:
        v = self._v.get(int(src))
        if v is None:
            v = _VertexAdj([], [])
            self._v[int(src)] = v
        if int(dst) in v.pos:
            raise KeyError(f"edge ({src},{dst}) already present")
        idx = v.dst.append(int(dst))
        v.bias.append(float(bias))
        v.pos[int(dst)] = idx

    def delete(self, src: int, dst: int) -> None:
        v = self._v.get(int(src))
        if v is None or int(dst) not in v.pos:
            raise KeyError(f"edge ({src},{dst}) not present")
        idx = v.pos.pop(int(dst))
        moved = v.dst.pop_swap(idx)
        v.bias.pop_swap(idx)
        if moved is not None:
            v.pos[int(moved)] = idx

    def apply(self, batch: pd.DataFrame) -> None:
        """Apply one in-order update batch (columns op/src/dst/bias)."""
        for op, src, dst, bias in zip(
            batch["op"], batch["src"], batch["dst"], batch["bias"]
        ):
            if op == OP_INSERT:
                self.insert(int(src), int(dst), bias)
            elif op == OP_DELETE:
                self.delete(int(src), int(dst))
            else:
                raise ValueError(f"unknown op {op}")

    # -- queries -------------------------------------------------------------

    def vertices(self) -> np.ndarray:
        return np.array(
            sorted(u for u, v in self._v.items() if len(v.dst) > 0), dtype=np.int64
        )

    def items(self):
        """Yield (vertex, dst view, bias view) for non-empty vertices."""
        for u, v in self._v.items():
            if len(v.dst):
                yield u, v.dst.view(), v.bias.view()

    def neighbors(self, u: int):
        v = self._v.get(int(u))
        if v is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return v.dst.view(), v.bias.view()

    def out_degree(self, u: int) -> int:
        v = self._v.get(int(u))
        return 0 if v is None else len(v.dst)

    def has_edge(self, u: int, dst: int) -> bool:
        v = self._v.get(int(u))
        return v is not None and int(dst) in v.pos

    def num_edges(self) -> int:
        return sum(len(v.dst) for v in self._v.values())

    def edges(self) -> pd.DataFrame:
        return edge_frame(self.items())

    @property
    def nbytes(self) -> int:
        return sum(
            v.dst.nbytes + v.bias.nbytes + _POS_ENTRY_BYTES * len(v.pos)
            for v in self._v.values()
        )
