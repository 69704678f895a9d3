"""SOTA comparator simulators: correct distributions, reload protocol,
memory-model relationships used in Table 3."""
import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore
from repro.graphs.dynamic_graph import Adjacency
from repro.graphs.updates import apply_updates, make_update_plan
from repro.sota import SOTA_STORES, FlowWalkerStore, GSamplerStore, KnightKingStore
from repro.synth_data import graph_edges
from repro.walk import random_walk
from tests.util import assert_distribution, rng


def edges_df(rows):
    return pd.DataFrame(rows, columns=["src", "dst", "bias"])


def events(rows):
    return pd.DataFrame(rows, columns=["op", "src", "dst", "bias"])


@pytest.fixture(params=list(SOTA_STORES.values()), ids=list(SOTA_STORES))
def sota_cls(request):
    return request.param


class TestAdjacency:
    def test_build_and_queries(self):
        adj = Adjacency.from_edges(edges_df([(0, 1, 2), (0, 2, 3), (5, 0, 1)]))
        assert len(adj.row(0).dst) == 2
        assert adj.has_edge(5, 0)
        assert not adj.has_edge(1, 0)
        assert len(adj.edges()) == 3
        np.testing.assert_array_equal(adj.vertices(), [0, 5])

    def test_insert_delete(self):
        adj = Adjacency.from_edges(edges_df([(0, 1, 2)]))
        adj.apply(events([(1, 0, 9, 4)]))
        assert adj.has_edge(0, 9)
        adj.apply(events([(-1, 0, 1, 0)]))
        assert not adj.has_edge(0, 1)
        assert len(adj.row(0).dst) == 1
        row = adj.row(0)
        assert row.append(7, 1.0) == 1
        assert row.delete(9) == 0  # the tail (7) moves into index 0
        assert row.dst.view().tolist() == [7] and row.pos == {7: 0}
        assert row.delete(7) == 0 and row.pos == {}

    def test_duplicate_insert_rejected(self):
        adj = Adjacency.from_edges(edges_df([(0, 1, 2)]))
        with pytest.raises(KeyError):
            adj.apply(events([(1, 0, 7, 1), (1, 0, 1, 5)]))
        with pytest.raises(KeyError):
            adj.row(0).append(1, 5.0)
        pd.testing.assert_frame_equal(adj.edges(), edges_df([(0, 1, 2)]), check_dtype=False)

    def test_delete_missing_rejected(self):
        adj = Adjacency.from_edges(edges_df([(0, 1, 2)]))
        with pytest.raises(KeyError):
            adj.apply(events([(1, 0, 7, 1), (-1, 3, 4, 0)]))
        with pytest.raises(KeyError):
            adj.row(0).delete(4)
        pd.testing.assert_frame_equal(adj.edges(), edges_df([(0, 1, 2)]), check_dtype=False)
        assert list(adj.rows) == [0]

    def test_apply_matches_pandas_truth(self):
        e = graph_edges("AM").head(3000)
        plan = make_update_plan(e, batch_size=100, n_batches=3, mode="mixed", seed=11)
        adj = Adjacency.from_edges(plan.initial)
        for b in plan.batches:
            adj.apply(b)
        truth = apply_updates(plan.initial, plan.batches)
        got = adj.edges().astype({"src": np.int64, "dst": np.int64})
        pd.testing.assert_frame_equal(got, truth, check_dtype=False)

    def test_nbytes_positive(self):
        adj = Adjacency.from_edges(edges_df([(0, 1, 2)]))
        assert adj.nbytes > 0


class TestSotaDistributions:
    def test_first_step_bias(self, sota_cls):
        st = sota_cls(edges_df([(0, 1, 3), (0, 2, 1), (1, 0, 1), (2, 0, 1)]))
        res = random_walk(st, [0] * 40_000, rng(1), length=1)
        assert_distribution(res.paths[:, 1] - 1, [0.75, 0.25])

    def test_dead_end(self, sota_cls):
        st = sota_cls(edges_df([(0, 1, 1)]))
        out = st.sample_next(rng(2), np.array([1]))
        assert out[0] == -1

    def test_after_update_round(self, sota_cls):
        st = sota_cls(edges_df([(0, 1, 3), (0, 2, 1)]))
        batch = pd.DataFrame(
            {"op": [1, -1], "src": [0, 0], "dst": [3, 1], "bias": [4, 0]}
        )
        st.apply_batch(batch)
        assert st.has_edge(0, 3) and not st.has_edge(0, 1)
        res = random_walk(st, [0] * 30_000, rng(3), length=1)
        # Now 0 -> {2 (w1), 3 (w4)}.
        remap = {2: 0, 3: 1}
        mapped = np.array([remap[int(x)] for x in res.paths[:, 1]])
        assert_distribution(mapped, [0.2, 0.8])

    def test_matches_bingo_distribution(self, sota_cls):
        e = graph_edges("AM").head(400)
        bingo = BingoStore(e)
        other = sota_cls(e)
        starts = np.repeat(e.src.unique()[:20], 2000)
        a = bingo.sample_next(rng(4), starts)
        b = other.sample_next(rng(5), starts)
        # Same per-start empirical next-hop distribution (coarse check on
        # means of dst ids per start vertex).
        da = pd.Series(a).groupby(starts).mean()
        db = pd.Series(b).groupby(starts).mean()
        assert np.abs(da - db).max() < 0.1 * max(1, da.abs().max())


class TestMemoryModel:
    def test_flowwalker_no_structures(self):
        st = FlowWalkerStore(graph_edges("AM").head(2000))
        assert st.structure_nbytes() == 0

    def test_gsampler_heaviest_structures(self):
        e = graph_edges("AM").head(2000)
        gs = GSamplerStore(e).structure_nbytes()
        kk = KnightKingStore(e).structure_nbytes()
        fw = FlowWalkerStore(e).structure_nbytes()
        # Table 3 memory ordering among the comparators:
        # gSampler > KnightKing > FlowWalker.
        assert gs > kk > fw

    def test_bingo_between(self):
        # Bingo consumes more than KnightKing/FlowWalker (Table 3 insight i).
        e = graph_edges("LJ").head(5000)
        _, bingo_struct = BingoStore(e).memory_bytes()
        kk = KnightKingStore(e).structure_nbytes()
        fw = FlowWalkerStore(e).structure_nbytes()
        assert bingo_struct > kk > fw


class TestRebuildProtocol:
    def test_knightking_rebuild_replaces_tables(self):
        st = KnightKingStore(edges_df([(0, 1, 3), (0, 2, 1)]))
        before = st._tables[0]
        st.apply_batch(pd.DataFrame({"op": [1], "src": [0], "dst": [5], "bias": [2]}))
        assert st._tables[0] is not before
        assert st._tables[0].n == 3

    def test_gsampler_tensors_normalized(self):
        st = GSamplerStore(edges_df([(0, 1, 3), (0, 2, 1)]))
        w, p, cdf = st._tensors[0]
        np.testing.assert_allclose(p.sum(), 1.0)
        np.testing.assert_allclose(cdf[-1], 1.0)
        np.testing.assert_allclose(w, [3.0, 1.0])


class TestIntegerBiasExactness:
    """float64 holds every integer up to 2**53 exactly; a larger integer
    bias it would round raises instead of being stored rounded."""

    def test_rounded_bias_rejected(self, sota_cls):
        with pytest.raises(ValueError):
            sota_cls(edges_df([(0, 1, 1), (0, 2, 2**53 + 1)]))
        st = sota_cls(edges_df([(0, 1, 3)]))
        with pytest.raises(ValueError):
            st.apply_batch(
                pd.DataFrame({"op": [1], "src": [0], "dst": [2], "bias": [2**53 + 1]})
            )
        pd.testing.assert_frame_equal(
            st.edges(), edges_df([(0, 1, 3)]), check_dtype=False
        )

    def test_two_to_the_53_accepted(self, sota_cls):
        st = sota_cls(edges_df([(0, 1, 2**53)]))
        assert st.edges().bias.tolist() == [2**53]
        assert st.sample_next(rng(0), np.array([0]))[0] == 1
