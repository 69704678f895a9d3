"""Graph-wide BINGO store: one ``BingoVertex`` per vertex (paper §6
"treats each vertex as an individual object").

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
    state: dict = {}  # (src, dst) -> (present_now, bias)
    for op, src, dst, bias in zip(batch["op"], batch["src"], batch["dst"], batch["bias"]):
        key = (int(src), int(dst))
        present, _ = state.get(key, (None, None))
        if present is None:
            present = has_edge(int(src), int(dst))
        if op == OP_INSERT:
            if present:
                raise KeyError(f"insert of existing edge {key}")
            state[key] = (True, bias)
        elif op == OP_DELETE:
            if not present:
                raise KeyError(f"delete of missing edge {key}")
            state[key] = (False, None)
        else:
            raise ValueError(f"unknown op {op}")
    inserts: dict = {}
    deletes: dict = {}
    for (src, dst), (present, bias) in state.items():
        was = has_edge(src, dst)
        if present and not was:
            inserts.setdefault(src, []).append((dst, bias))
        elif not present and was:
            deletes.setdefault(src, []).append(dst)
        # present == was: the batch's net effect on this edge is nil
        # (insert+delete round trip) — nothing to apply.
    return inserts, deletes


class BingoStore:
    """Per-vertex BINGO structures over a whole (dynamic) graph."""

    name = "bingo"

    def __init__(
        self,
        edges: pd.DataFrame,
        *,
        adaptive: bool = True,
        float_bias: bool = False,
    ) -> None:
        self.adaptive = adaptive
        self.float_bias = float_bias
        self._v: dict[int, BingoVertex] = {
            u: BingoVertex(dsts, biases, adaptive=adaptive, float_bias=float_bias)
            for u, dsts, biases in dynamic_graph.split_by_src(edges)
        }

    # -- queries -------------------------------------------------------------

    def vertex(self, u: int) -> BingoVertex | None:
        return self._v.get(int(u))

    def vertices(self) -> np.ndarray:
        """Vertex ids with at least one out-edge (walker start points)."""
        return np.array(
            sorted(u for u, v in self._v.items() if v.degree > 0), dtype=np.int64
        )

    def out_degree(self, u: int) -> int:
        v = self._v.get(int(u))
        return 0 if v is None else v.degree

    def has_edge(self, u: int, dst: int) -> bool:
        v = self._v.get(int(u))
        return v is not None and v.has_edge(dst)

    def num_edges(self) -> int:
        return sum(v.degree for v in self._v.values())

    def items(self):
        """Yield (vertex, dst view, raw-bias view) for non-empty vertices."""
        for u, v in self._v.items():
            if v.degree:
                yield u, v.neighbors_view(), v.raw_bias_view()

    def edges(self) -> pd.DataFrame:
        """Materialize the current edge list (oracle-side ground truth)."""
        return dynamic_graph.edge_frame(self.items())

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
        for u, idx in iter_vertex_groups(cur):
            v = get(u)
            if v is None or v.degree == 0:
                continue
            if len(idx) == 1:
                out[idx[0]] = v.sample_dst_one(rng)
            else:
                out[idx] = v.sample_dst(rng, len(idx))
        return out

    # -- updates -------------------------------------------------------------

    def _get_or_create(self, u: int) -> BingoVertex:
        v = self._v.get(int(u))
        if v is None:
            v = BingoVertex([], [], adaptive=self.adaptive, float_bias=self.float_bias)
            self._v[int(u)] = v
        return v

    def apply_stream(self, batch: pd.DataFrame) -> None:
        """Streaming path (§4.2): one structure update per event, in order."""
        for op, src, dst, bias in zip(
            batch["op"], batch["src"], batch["dst"], batch["bias"]
        ):
            if op == OP_INSERT:
                self._get_or_create(int(src)).insert(int(dst), bias)
            elif op == OP_DELETE:
                v = self._v.get(int(src))
                if v is None:
                    raise KeyError(f"delete from unknown vertex {src}")
                v.delete(int(dst))
            else:
                raise ValueError(f"unknown op {op}")

    def apply_batch(self, batch: pd.DataFrame) -> None:
        """Batched path (§5.2): group by vertex, insert→delete→one rebuild."""
        inserts, deletes = resolve_net_effects(self.has_edge, batch)
        for u in set(inserts) | set(deletes):
            apply_vertex_batch(
                self._get_or_create(u), inserts.get(u, []), deletes.get(u, [])
            )

    # -- accounting ----------------------------------------------------------

    def memory_bytes(self) -> tuple[int, int]:
        """(graph bytes, sampling-structure bytes) across all vertices."""
        g = sum(v.graph_nbytes for v in self._v.values())
        s = sum(v.structure_nbytes for v in self._v.values())
        return g, s

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
        for v in self._v.values():
            v.check_invariants()
