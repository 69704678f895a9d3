"""Graph-wide BINGO store: one dynamic adjacency plus one ``BingoVertex``
per vertex (paper §6 "treats each vertex as an individual object", on
the Hornet-style substrate of §9.1).

The store is the engine-facing surface shared by BINGO and the SOTA
simulators: vectorized next-hop sampling for a batch of walkers,
streaming and batched update ingestion, adjacency queries for
second-order (node2vec) rejection tests, and memory accounting.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

# A module import: ``graphs.dynamic_graph`` imports ``core.dynarray``,
# so a from-import here would cycle through this package's __init__.
from ..graphs import dynamic_graph
from ..graphs.updates import OP_DELETE, OP_INSERT
from .batched import apply_vertex_batch
from .bingo_vertex import BingoVertex
from .grouping import iter_vertex_groups


def resolve_net_effects(has_edge, batch: pd.DataFrame):
    """Collapse an in-order update batch to net per-edge effects (§5.2).

    The paper allows re-inserting a just-deleted edge within a batch via
    timestamps; processing events in order and keeping only each edge's
    final state is equivalent once the whole batch is applied atomically
    before the next walk round (§6 implementation detail ii).

    Returns ``(inserts, deletes)``: dicts keyed by src of [(dst, bias)]
    / [dst] lists. Raises on deleting an edge that is absent at that
    point of the stream, mirroring a real engine's integrity check.
    """
    # (src, dst) -> (present before the batch, present now, bias); the
    # store is unchanged until the batch is applied, so one probe per edge.
    state: dict = {}
    for op, src, dst, bias in zip(batch["op"], batch["src"], batch["dst"], batch["bias"]):
        key = (int(src), int(dst))
        entry = state.get(key)
        if entry is None:
            was = present = has_edge(*key)
        else:
            was, present, _ = entry
        if op == OP_INSERT:
            if present:
                raise KeyError(f"insert of existing edge {key}")
            state[key] = (was, True, bias)
        elif op == OP_DELETE:
            if not present:
                raise KeyError(f"delete of missing edge {key}")
            state[key] = (was, False, None)
        else:
            raise ValueError(f"unknown op {op}")
    inserts: dict = {}
    deletes: dict = {}
    for (src, dst), (was, present, bias) in state.items():
        if present and not was:
            inserts.setdefault(src, []).append((dst, bias))
        elif not present and was:
            deletes.setdefault(src, []).append(dst)
        # present == was: the batch's net effect on this edge is nil
        # (insert+delete round trip) — nothing to apply.
    return inserts, deletes


class BingoStore:
    """One dynamic adjacency plus one BINGO sampler per source vertex.

    ``adj`` answers every graph-level query; each ``BingoVertex`` in
    ``_v`` works on the same adjacency indices as its row, and drawn
    indices map to destinations through that row."""

    name = "bingo"

    def __init__(self, edges: pd.DataFrame) -> None:
        self.adj = dynamic_graph.Adjacency.from_edges(edges)
        self._v: dict[int, BingoVertex] = {
            u: BingoVertex(row.bias.view())
            for u, row in self.adj.rows.items()
        }

    # -- queries -------------------------------------------------------------

    def vertices(self) -> np.ndarray:
        """Vertex ids with at least one out-edge (walker start points)."""
        return self.adj.vertices()

    def out_degree(self, u: int) -> int:
        return self.adj.out_degree(u)

    def has_edge(self, u: int, dst: int) -> bool:
        return self.adj.has_edge(u, dst)

    def num_edges(self) -> int:
        return self.adj.num_edges()

    def items(self):
        """Yield (vertex, dst view, raw-bias view) for non-empty vertices."""
        return self.adj.items()

    def edges(self) -> pd.DataFrame:
        """Materialize the current edge list (oracle-side ground truth)."""
        return self.adj.edges()

    # -- sampling ------------------------------------------------------------

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next-hop for each walker at ``cur`` (-1 marks a dead end).

        Walkers at the same vertex are drawn in one vectorized call —
        the CPU analog of BINGO's per-vertex GPU kernels — with a scalar
        fast path for singly-occupied vertices.
        """
        cur = np.asarray(cur, dtype=np.int64)
        out = np.full(len(cur), -1, dtype=np.int64)
        get = self._v.get
        rows = self.adj.rows
        for u, idx in iter_vertex_groups(cur):
            v = get(u)
            if v is None or v.degree == 0:
                continue
            dst = rows[u].dst
            if len(idx) == 1:
                out[idx[0]] = dst._buf[v.sample_one(rng)]
            else:
                out[idx] = dst.view()[v.sample(rng, len(idx))]
        return out

    # -- updates -------------------------------------------------------------

    def _sampler(self, u: int) -> BingoVertex:
        v = self._v.get(u)
        if v is None:
            v = self._v[u] = BingoVertex([])
        return v

    def apply_stream(self, batch: pd.DataFrame) -> None:
        """Streaming path (§4.2): one structure update per event, in order."""
        for op, src, dst, bias in zip(
            batch["op"], batch["src"], batch["dst"], batch["bias"]
        ):
            u, dst = int(src), int(dst)
            if op == OP_INSERT:
                row = self.adj.row(u)
                if dst in row.pos:
                    raise KeyError(f"insert of existing edge ({u},{dst})")
                self._sampler(u).insert(bias)  # validates before the row changes
                row.append(dst, bias)
            elif op == OP_DELETE:
                self._v[u].delete(self.adj.delete(u, dst))
            else:
                raise ValueError(f"unknown op {op}")

    def apply_batch(self, batch: pd.DataFrame) -> None:
        """Batched path (§5.2): group by vertex, insert→delete→one rebuild."""
        inserts, deletes = resolve_net_effects(self.has_edge, batch)
        for u in set(inserts) | set(deletes):
            apply_vertex_batch(
                self._sampler(u), inserts.get(u, []), deletes.get(u, []),
                self.adj.row(u),
            )

    # -- accounting ----------------------------------------------------------

    def memory_bytes(self) -> tuple[int, int]:
        """(graph bytes, sampling-structure bytes) across all vertices."""
        return self.adj.nbytes, sum(v.nbytes for v in self._v.values())

    def conversion_stats(self) -> tuple[Counter, Counter]:
        """Aggregated (conversions, touches) counters — Table 4's raw data."""
        conv: Counter = Counter()
        touch: Counter = Counter()
        for v in self._v.values():
            conv.update(v.conversions)
            touch.update(v.touches)
        return conv, touch

    def group_kind_histogram(self) -> Counter:
        """Current group-representation census (Fig. 11(e) style)."""
        hist: Counter = Counter()
        for v in self._v.values():
            hist.update(v.group_kinds().values())
        return hist

    def check_invariants(self) -> None:
        """Every sampler matches a from-scratch rebuild and stays aligned
        with its adjacency row: same degree, and the sampler's weight at
        each index is the row's raw bias there, λ-scaled."""
        assert self._v.keys() == self.adj.rows.keys()
        for u, v in self._v.items():
            v.check_invariants()
            row = self.adj.rows[u]
            d = len(row.dst)
            assert v.degree == d == len(row.pos)
            assert all(int(row.dst[i]) == dst for dst, i in row.pos.items())
            w = np.array([v.weight_of(i) for i in range(d)], dtype=np.float64)
            np.testing.assert_array_equal(w, row.bias.view() * v.lam)
