"""Update-stream generator (§6.1) and the Table 2 lite-graph suite."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.partition import partition_of
from repro.graphs.updates import (
    OP_DELETE,
    OP_INSERT,
    apply_updates,
    make_update_plan,
)
from repro.synth_data import GRAPH_SPECS, biases, graph_edges


@pytest.fixture(scope="module")
def am_edges():
    return graph_edges("AM")


class TestUpdatePlan:
    def test_split_sizes(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=50, n_batches=10, mode="mixed", seed=1)
        assert len(plan.batches) == 10
        assert all(len(b) == 50 for b in plan.batches)
        assert len(plan.initial) == len(am_edges) - 500

    def test_insertion_mode_only_inserts(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=40, n_batches=5, mode="insertion", seed=2)
        for b in plan.batches:
            assert (b.op == OP_INSERT).all()

    def test_deletion_mode_only_deletes(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=40, n_batches=5, mode="deletion", seed=3)
        for b in plan.batches:
            assert (b.op == OP_DELETE).all()

    def test_mixed_roughly_balanced(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=200, n_batches=10, mode="mixed", seed=4)
        ops = pd.concat(plan.batches).op
        frac = (ops == OP_INSERT).mean()
        assert 0.42 < frac < 0.58

    def test_inserts_come_from_set_b(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=60, n_batches=4, mode="insertion", seed=5)
        init_keys = set(zip(plan.initial.src, plan.initial.dst))
        for b in plan.batches:
            for s, d in zip(b.src, b.dst):
                assert (s, d) not in init_keys

    def test_deletes_come_from_initial(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=60, n_batches=4, mode="deletion", seed=6)
        init_keys = set(zip(plan.initial.src, plan.initial.dst))
        for b in plan.batches:
            for s, d in zip(b.src, b.dst):
                assert (s, d) in init_keys

    def test_no_duplicate_events(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=100, n_batches=5, mode="mixed", seed=7)
        allb = pd.concat(plan.batches)
        assert not allb.duplicated(["src", "dst"]).any()

    def test_deterministic_in_seed(self, am_edges):
        a = make_update_plan(am_edges, batch_size=30, n_batches=3, mode="mixed", seed=9)
        b = make_update_plan(am_edges, batch_size=30, n_batches=3, mode="mixed", seed=9)
        for x, y in zip(a.batches, b.batches):
            pd.testing.assert_frame_equal(x, y)

    def test_too_many_updates_rejected(self, am_edges):
        with pytest.raises(ValueError):
            make_update_plan(am_edges, batch_size=len(am_edges), n_batches=10)

    def test_bad_mode_rejected(self, am_edges):
        with pytest.raises(ValueError):
            make_update_plan(am_edges, batch_size=10, mode="chaos")

    def test_apply_updates_counts(self, am_edges):
        plan = make_update_plan(am_edges, batch_size=100, n_batches=5, mode="mixed", seed=10)
        final = apply_updates(plan.initial, plan.batches)
        n_ins = sum((b.op == OP_INSERT).sum() for b in plan.batches)
        n_del = sum((b.op == OP_DELETE).sum() for b in plan.batches)
        assert len(final) == len(plan.initial) + n_ins - n_del


class TestLiteGraphs:
    @pytest.mark.parametrize("abbr", list(GRAPH_SPECS))
    def test_shape_and_determinism(self, abbr):
        e1 = graph_edges(abbr, seed=7)
        e2 = graph_edges(abbr, seed=7)
        pd.testing.assert_frame_equal(e1, e2)
        spec = GRAPH_SPECS[abbr]
        assert e1.src.nunique() <= spec.n
        assert not (e1.src == e1.dst).any()
        assert not e1.duplicated(["src", "dst"]).any()
        assert (e1.bias >= 1).all()

    @pytest.mark.parametrize("abbr", list(GRAPH_SPECS))
    def test_avg_degree_near_target(self, abbr):
        e = graph_edges(abbr)
        spec = GRAPH_SPECS[abbr]
        avg = len(e) / spec.n
        # Dedup/self-loop removal shaves some edges; stay within 40%.
        assert 0.6 * spec.avg_deg <= avg <= 1.4 * spec.avg_deg

    def test_am_is_near_regular(self):
        e = graph_edges("AM")
        deg = e.groupby("src").size()
        assert deg.max() <= 15  # paper AM max degree is 10

    def test_tw_has_hub(self):
        e = graph_edges("TW")
        indeg = e.groupby("dst").size()
        # hub_frac=2% of ~300K edges -> a multi-thousand-degree hub,
        # orders above the mean (paper: 770.2K vs avg 35.2).
        assert indeg.max() > 20 * indeg.mean()

    def test_degree_skew_ordering(self):
        # Skew (max/avg in-degree) grows from AM to the hubby graphs, and
        # TW carries the absolutely largest hub, like the paper's suite.
        def stats(abbr):
            e = graph_edges(abbr)
            ind = e.groupby("dst").size()
            return ind.max() / ind.mean(), ind.max()
        skew_am, max_am = stats("AM")
        skew_lj, max_lj = stats("LJ")
        skew_tw, max_tw = stats("TW")
        assert skew_am < skew_lj and skew_am < skew_tw
        assert max_tw > max_lj > max_am

    def test_bias_follows_degree(self):
        e = graph_edges("LJ")
        # §6.1: bias is the destination vertex's total degree (clipped).
        tot = pd.concat([e.src, e.dst]).value_counts()
        sample = e.sample(200, random_state=0)
        expect = np.clip(tot.reindex(sample.dst).to_numpy(), 1, 2**16 - 1)
        np.testing.assert_array_equal(sample.bias.to_numpy(), expect)


class TestBiasDistributions:
    @pytest.mark.parametrize("kind", ["uniform", "powerlaw", "normal"])
    def test_range_and_determinism(self, kind):
        b1 = biases(kind, 5000, seed=3)
        b2 = biases(kind, 5000, seed=3)
        np.testing.assert_array_equal(b1, b2)
        assert (b1 >= 1).all() and (b1 < 4096).all()

    def test_powerlaw_is_skewed(self):
        b = biases("powerlaw", 20_000)
        assert np.median(b) < b.mean() / 1.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            biases("cauchy", 10)


class TestPartition:
    def test_range(self):
        p = partition_of(np.arange(1000), 8)
        assert p.min() >= 0 and p.max() < 8

    def test_stable(self):
        a = partition_of([5, 10, 5], 4)
        assert a[0] == a[2]

    def test_balanced(self):
        p = partition_of(np.arange(100_000), 16)
        counts = np.bincount(p, minlength=16)
        assert counts.min() > 0.7 * counts.mean()

    def test_covers_every_partition(self):
        # Each of 4 partitions owns some of 500 vertices, so every Spark
        # task holds state.
        assert set(partition_of(np.arange(500), 4).tolist()) == {0, 1, 2, 3}
