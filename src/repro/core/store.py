"""Graph-wide BINGO store: one dynamic adjacency plus one ``BingoVertex``
per vertex (paper §6 "treats each vertex as an individual object", on
the Hornet-style substrate of §9.1).

The store is the engine-facing surface shared by BINGO and the SOTA
simulators: vectorized next-hop sampling for a batch of walkers through
``dispatch``, the one walker-dispatch kernel of every store, batched
update ingestion (§5.2), adjacency queries for second-order (node2vec)
rejection tests, and memory accounting.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

# A module import: ``graphs.dynamic_graph`` imports ``core`` modules, so
# a from-import here would cycle through this package's __init__.
from ..graphs import dynamic_graph
from . import bits
from .batched import apply_vertex_batch, resolve_net_effects
from .bingo_vertex import BingoVertex


def iter_vertex_groups(cur: np.ndarray):
    """Yield (vertex, walker_indices) for each distinct vertex in ``cur``:
    one stable sort, O(n log n) in the walkers."""
    order = np.argsort(cur, kind="stable")
    uniq, starts = np.unique(cur[order], return_index=True)
    bounds = np.append(starts, len(cur))
    for i in range(len(uniq)):
        yield int(uniq[i]), order[starts[i] : bounds[i + 1]]


def dispatch(cur, rows, draw) -> np.ndarray:
    """Next hop of each walker at ``cur``, -1 at a vertex with no or an
    empty row in ``rows``. The walkers at vertex ``u`` share one call of
    ``draw(u, m)``, which returns ``m`` indices into ``u``'s row (an int
    when ``m == 1``): the CPU analog of BINGO's per-vertex kernels."""
    cur = np.asarray(cur, dtype=np.int64)
    out = np.full(len(cur), -1, dtype=np.int64)
    for u, idx in iter_vertex_groups(cur):
        row = rows.get(u)
        if row is None or not len(row.dst):
            continue
        if len(idx) == 1:
            out[idx[0]] = row.dst._buf[draw(u, 1)]
        else:
            out[idx] = row.dst.view()[draw(u, len(idx))]
    return out


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

    def has_edge(self, u: int, dst: int) -> bool:
        return self.adj.has_edge(u, dst)

    def items(self):
        """Yield (vertex, dst view, raw-bias view) for non-empty vertices."""
        return self.adj.items()

    def edges(self) -> pd.DataFrame:
        """Materialize the current edge list (oracle-side ground truth)."""
        return self.adj.edges()

    # -- sampling ------------------------------------------------------------

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next hop for each walker at ``cur`` (-1 marks a dead end): one
        vectorized hierarchical draw per occupied vertex, scalar for a
        vertex with one walker."""
        v = self._v

        def draw(u, m):
            return v[u].sample_one(rng) if m == 1 else v[u].sample(rng, m)

        return dispatch(cur, self.adj.rows, draw)

    # -- updates -------------------------------------------------------------

    def apply_batch(self, batch: pd.DataFrame) -> None:
        """Batched path (§5.2): group by vertex, insert→delete→one rebuild,
        then a new λ for a vertex whose decimal mass passed 1/d.

        The whole batch is validated before any vertex changes, so a
        batch that raises leaves the store as it was."""
        inserts, deletes = resolve_net_effects(self.has_edge, batch)
        for u, ins in inserts.items():
            # Inserts run first, at the vertex's λ or, if the first lands on an
            # empty vertex (a re-insert deletes its edge first), at the λ it picks.
            v = self._v.get(u)
            d = 0 if v is None else v.degree - self.adj.has_edge(u, ins[0][0])
            lam = bits.choose_lambda([ins[0][1]]) if d == 0 else v.lam
            if max(b for _, b in ins) * lam >= bits.INT64_LIMIT:
                raise ValueError(f"a bias into vertex {u} at λ={lam} overflows int64")
        for u in set(inserts) | set(deletes):
            v = self._v.get(u)
            if v is None:
                v = self._v[u] = BingoVertex([])
            row = self.adj.row(u)
            apply_vertex_batch(v, inserts.get(u, []), deletes.get(u, []), row)
            self._readapt_lambda(u, row.bias.view())

    def _readapt_lambda(self, u: int, biases: np.ndarray) -> None:
        """Rebuild vertex ``u`` from its raw ``biases`` at a new λ when its
        decimal mass passed 1/d (``BingoVertex.decimal_mass_high``),
        ``choose_lambda`` picks another λ, and that λ's split fits int64.
        The rebuild keeps the conversion and touch counters.

        It cannot raise, so a batch stays atomic: the biases passed the
        batch's checks, and ``choose_lambda`` only tries a λ that could
        overflow on vertices of degree above ~1e9."""
        v = self._v[u]
        if not v.decimal_mass_high():
            return
        lam = bits.choose_lambda(biases)
        if lam == v.lam or biases.max() * lam >= bits.INT64_LIMIT:
            return
        new = self._v[u] = BingoVertex(biases)
        new.conversions, new.touches = v.conversions, v.touches

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
