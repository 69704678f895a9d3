"""Distributed BINGO engine: 1-D partitioned state, walker forwarding,
distributed updates — cross-checked against the local engine and the
pandas ground truth."""
import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore
from repro.graphs.updates import apply_updates, make_update_plan
from repro.spark.engine import SparkBingoEngine
from repro.synth_data import graph_edges
from repro.walk import random_walk
from tests.util import assert_distribution, rng


@pytest.fixture(scope="module")
def small_edges():
    return graph_edges("AM").head(2500)


@pytest.fixture(scope="module")
def engine(spark, small_edges):
    return SparkBingoEngine(spark, small_edges, n_parts=4)


class TestConstruction:
    def test_state_covers_all_edges(self, engine, small_edges):
        got = engine.edges().astype({"src": np.int64, "dst": np.int64})
        want = (
            small_edges.sort_values(["src", "dst"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_partition_stores_valid(self, engine):
        for pid in range(engine.n_parts):
            engine.store_of(pid).check_invariants()

    def test_memory_accounting(self, engine):
        g, s = engine.memory_bytes()
        assert g > 0 and s > 0


class TestDistributedWalk:
    def test_paths_follow_edges(self, engine, small_edges):
        starts = engine.vertices()[:40]
        seg = engine.walk(starts=starts, length=6, seed=1)
        has = set(zip(small_edges.src, small_edges.dst))
        by_walker = seg.sort_values(["walker", "step"]).groupby("walker")
        for _, grp in by_walker:
            vs = grp.vertex.tolist()
            for a, b in zip(vs[:-1], vs[1:]):
                assert (a, b) in has, f"edge ({a},{b}) not in graph"

    def test_walk_lengths_bounded(self, engine):
        starts = engine.vertices()[:30]
        seg = engine.walk(starts=starts, length=5, seed=2)
        assert seg.step.max() <= 5
        assert set(seg[seg.step == 0].walker) == set(range(30))

    def test_first_step_distribution_matches_local(self, spark):
        # Biased triangle across partitions: first-hop distribution must
        # follow Eq. 2 exactly as in the local engine.
        edges = pd.DataFrame(
            {"src": [0, 0, 1, 2], "dst": [1, 2, 0, 0], "bias": [3, 1, 1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=3)
        seg = eng.walk(starts=np.zeros(4000, dtype=np.int64), length=1, seed=3)
        first = seg[seg.step == 1].vertex.to_numpy()
        assert_distribution(first - 1, [0.75, 0.25])

    def test_ppr_stop_prob(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 1], "dst": [1, 0], "bias": [1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.zeros(600, dtype=np.int64), length=50,
                       seed=4, stop_prob=0.5)
        lengths = seg.groupby("walker").step.max()
        # Geometric with p=0.5: mean 1 extra step.
        assert 0.6 < lengths.mean() < 1.6
        # Every round draws fresh coins, so no walker outlives ~2^-30 odds.
        assert lengths.max() < 30
        # P(L = k) = 2^-(k+1); capping at 5 pools the tail P(L >= 5) = 2^-5.
        assert_distribution(
            np.minimum(lengths.to_numpy(), 5),
            [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 32],
        )

    def test_dead_ends_stop(self, spark):
        edges = pd.DataFrame({"src": [0], "dst": [1], "bias": [1]})
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.array([0, 0]), length=5, seed=5)
        assert seg.step.max() == 1


class TestDistributedUpdates:
    def test_updates_match_ground_truth(self, spark, small_edges):
        plan = make_update_plan(small_edges, batch_size=80, n_batches=3,
                                mode="mixed", seed=31)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        for b in plan.batches:
            eng.apply_updates(b)
        truth = apply_updates(plan.initial, plan.batches)
        got = eng.edges().astype({"src": np.int64, "dst": np.int64})
        pd.testing.assert_frame_equal(got, truth, check_dtype=False)
        for pid in range(eng.n_parts):
            eng.store_of(pid).check_invariants()

    def test_untouched_partitions_keep_state(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 1, 2, 3], "dst": [1, 2, 3, 0], "bias": [1, 1, 1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        before = dict(eng._state)
        batch = pd.DataFrame({"op": [1], "src": [0], "dst": [9], "bias": [2]})
        eng.apply_updates(batch)
        from repro.graphs.partition import partition_of

        touched = int(partition_of(np.array([0]), 4)[0])
        for pid, blob in before.items():
            if pid != touched:
                assert eng._state[pid] is blob

    def test_vertices_follow_deletes(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 0, 1, 2], "dst": [1, 2, 2, 0], "bias": [1, 1, 1, 1]}
        )
        batch = pd.DataFrame({"op": [-1], "src": [1], "dst": [2], "bias": [0]})
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        local = BingoStore(edges)
        eng.apply_updates(batch)
        local.apply_batch(batch)
        np.testing.assert_array_equal(eng.vertices(), [0, 2])
        np.testing.assert_array_equal(eng.vertices(), local.vertices())

    def test_float_biases(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 0, 1, 2], "dst": [1, 2, 0, 0], "bias": [0.3, 0.1, 0.25, 1.5]}
        )
        batch = pd.DataFrame(
            {"op": [1, 1, -1], "src": [0, 3, 2], "dst": [3, 0, 0], "bias": [0.2, 0.75, 0.0]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=3)
        eng.apply_updates(batch)
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            apply_updates(edges, [batch]),
        )
        seg = eng.walk(starts=np.zeros(4000, dtype=np.int64), length=1, seed=6)
        first = seg[seg.step == 1].vertex.to_numpy()
        # Eq. 2 over vertex 0's biases 0.3, 0.1, 0.2 (to 1, 2, 3).
        assert_distribution(first - 1, [0.5, 1 / 6, 1 / 3])

    def test_distribution_after_updates_matches_local(self, spark, small_edges):
        plan = make_update_plan(small_edges, batch_size=60, n_batches=2,
                                mode="mixed", seed=32)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        local = BingoStore(plan.initial)
        for b in plan.batches:
            eng.apply_updates(b)
            local.apply_batch(b)
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            local.edges().astype({"src": np.int64, "dst": np.int64}),
            check_dtype=False,
        )
