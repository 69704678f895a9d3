"""Distributed BINGO engine: 1-D partitioned state, walker forwarding,
distributed updates, resident partition state — cross-checked against
the local engine and the pandas ground truth."""
import os
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore
from repro.graphs.partition import partition_of
from repro.graphs.updates import apply_updates, make_update_plan
from repro.spark import engine as engine_mod
from repro.spark.engine import SparkBingoEngine, _resident, _state_row
from repro.synth_data import graph_edges
from repro.walk import random_walk
from tests.util import assert_distribution, reinsert_case, rng


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

    @pytest.mark.parametrize("stop_prob", [None, 0.2])
    def test_each_step_once_without_gaps(self, spark, stop_prob):
        # A complete digraph on 12 vertices in 4 partitions: no dead ends,
        # and most moves cross partitions, so each walk spans rounds.
        src, dst = np.nonzero(~np.eye(12, dtype=bool))
        edges = pd.DataFrame({"src": src, "dst": dst, "bias": 1 + (src + dst) % 5})
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        seg = eng.walk(starts=np.arange(40) % 12, length=8, seed=9,
                       stop_prob=stop_prob)
        assert not seg.duplicated(["walker", "step"]).any()
        per = seg.groupby("walker").step.agg(["min", "max", "count"])
        assert per.index.tolist() == list(range(40))
        assert (per["min"] == 0).all()
        assert (per["count"] == per["max"] + 1).all()  # no step skipped
        if stop_prob is None:
            assert (per["max"] == 8).all()
        pid = partition_of(seg.vertex.to_numpy(), 4)
        crossed = (seg.walker.diff() == 0) & (np.diff(pid, prepend=-1) != 0)
        assert crossed.sum() > 40

    def test_dead_ends_stop(self, spark):
        edges = pd.DataFrame({"src": [0], "dst": [1], "bias": [1]})
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.array([0, 0]), length=5, seed=5)
        assert seg.step.max() == 1

    @pytest.mark.parametrize("kw", [{"stop_prob": np.nan}, {"stop_prob": -0.5},
                                    {"stop_prob": 1.5}, {"length": -1}],
                             ids=["nan", "negative", "above_one", "length"])
    def test_bad_walk_raises_before_any_job(self, spark, engine, kw):
        sc = spark.sparkContext
        sc.setJobGroup("bad-walk", "a walk that must start no job")
        try:
            with pytest.raises(ValueError):
                engine.walk(starts=engine.vertices()[:4], seed=6, **kw)
            assert list(sc.statusTracker().getJobIdsForGroup("bad-walk")) == []
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)


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
        before, shipped = dict(eng._state), dict(eng._shipped)
        batch = pd.DataFrame({"op": [1], "src": [0], "dst": [9], "bias": [2]})
        eng.apply_updates(batch)

        touched = int(partition_of(np.array([0]), 4)[0])
        for pid, blob in before.items():
            if pid != touched:
                assert eng._state[pid] is blob
                assert eng._shipped[pid] is shipped[pid]  # same token and broadcast
        assert eng._shipped[touched][0] != shipped[touched][0]

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

    @pytest.mark.parametrize("scale", [1, 7], ids=["int", "float"])
    def test_reinsert_takes_new_bias(self, spark, scale):
        """An edge that one batch deletes and inserts again keeps its new
        bias in its partition's store, as on the local stores."""
        initial, batch, after = reinsert_case(scale)
        eng = SparkBingoEngine(spark, initial, n_parts=2)
        eng.apply_updates(batch)
        pd.testing.assert_frame_equal(eng.edges(), after, check_dtype=False)
        for pid in eng._state:
            eng.store_of(pid).check_invariants()
        seg = eng.walk(starts=np.zeros(8000, dtype=np.int64), length=1, seed=7)
        assert_distribution(seg[seg.step == 1].vertex.to_numpy() - 1, [5 / 7, 2 / 7])

    def test_partition_stores_share_row_biases(self, spark, small_edges):
        """After a mixed batch with a re-insert, each unpickled partition
        store still samples every vertex over its row's bias array."""
        plan = make_update_plan(small_edges, batch_size=80, n_batches=1,
                                mode="mixed", seed=33)
        batch = plan.batches[0]
        touched = set(zip(batch.src, batch.dst))
        e = next(r for r in plan.initial.itertuples() if (r.src, r.dst) not in touched)
        reinsert = pd.DataFrame({"op": [-1, 1], "src": [e.src] * 2,
                                 "dst": [e.dst] * 2, "bias": [0, e.bias + 3]})
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        eng.apply_updates(pd.concat([batch, reinsert], ignore_index=True))
        for pid in eng._state:
            st = eng.store_of(pid)
            st.check_invariants()
            assert all(v._b is st.adj.rows[u].bias for u, v in st._v.items())
        assert eng.edges().query("src == @e.src and dst == @e.dst").bias.tolist() == [e.bias + 3]

    def test_empty_graph_and_batch(self, spark):
        """An empty edge frame builds and an empty batch is a no-op, as on
        the local stores; deleting every edge leaves typed empty edges."""
        empty = pd.DataFrame({"src": [], "dst": [], "bias": []})
        eng = SparkBingoEngine(spark, empty, n_parts=2)
        assert len(eng.vertices()) == 0 and eng.edges().empty
        batch = pd.DataFrame({"op": [1, 1], "src": [0, 1], "dst": [1, 0], "bias": [2, 3]})
        eng.apply_updates(batch.iloc[:0])
        eng.apply_updates(batch)
        eng.apply_updates(batch.iloc[:0])
        np.testing.assert_array_equal(eng.vertices(), [0, 1])
        eng.apply_updates(batch.assign(op=-1))
        got = eng.edges()
        assert len(eng.vertices()) == 0 and got.empty
        assert got.dtypes.to_dict() == {"src": np.int64, "dst": np.int64, "bias": np.float64}

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


class _Blob:
    """A stand-in broadcast that counts the reads of its ``value``."""

    def __init__(self, store: BingoStore) -> None:
        self.blob = pickle.dumps(store)
        self.reads = 0

    @property
    def value(self) -> bytes:
        self.reads += 1
        return self.blob


class TestResidentCache:
    """The per-worker cache rule, run on the driver's copy of the module."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_RESIDENT", {})

    @pytest.fixture
    def edges(self):
        return pd.DataFrame({"src": [0, 0, 4], "dst": [1, 2, 0], "bias": [3, 1, 2]})

    def test_hit_returns_same_object(self, edges):
        bc = _Blob(BingoStore(edges))
        first = _resident(0, ("v1", bc))
        assert _resident(0, ("v1", bc)) is first
        assert bc.reads == 1

    def test_token_mismatch_reloads(self, edges):
        old, new = _Blob(BingoStore(edges)), _Blob(BingoStore(edges.head(2)))
        first = _resident(0, ("v1", old))
        second = _resident(0, ("v2", new))
        assert second is not first and new.reads == 1
        pd.testing.assert_frame_equal(second.edges(), edges.head(2), check_dtype=False)
        assert engine_mod._RESIDENT[0] == ("v2", second)

    def test_take_is_recached_under_the_new_token(self, edges):
        bc = _Blob(BingoStore(edges))
        store = _resident(0, ("v1", bc), take=True)
        assert 0 not in engine_mod._RESIDENT
        _state_row(0, store, "v2")
        assert _resident(0, ("v2", bc)) is store
        assert _resident(0, ("v1", bc)) is not store  # a stale token reloads

    def test_failed_take_leaves_no_entry(self, edges):
        bc = _Blob(BingoStore(edges))
        cached = _resident(0, ("v1", bc))

        def update_task():
            store = _resident(0, ("v1", bc), take=True)
            store.apply_batch(pd.DataFrame({"op": [1], "src": [0], "dst": [9], "bias": [50]}))
            raise RuntimeError("the task fails after mutating its store")

        with pytest.raises(RuntimeError):
            update_task()
        assert 0 not in engine_mod._RESIDENT
        reloaded = _resident(0, ("v1", bc))
        assert reloaded is not cached and bc.reads == 2
        pd.testing.assert_frame_equal(reloaded.edges(), edges.sort_values(["src", "dst"]),
                                      check_dtype=False)


class TestResidentState:
    def test_repeat_walk_is_identical(self, spark, small_edges):
        """A cold walk (fresh tokens miss on every worker) and a warm one
        from the same seed return the same frame."""
        eng = SparkBingoEngine(spark, small_edges, n_parts=4)
        starts = eng.vertices()[:60]
        cold = eng.walk(starts=starts, length=10, seed=11, stop_prob=0.1)
        warm = eng.walk(starts=starts, length=10, seed=11, stop_prob=0.1)
        pd.testing.assert_frame_equal(cold, warm)

    def test_walk_creates_no_broadcast(self, spark, engine, monkeypatch):
        def refuse(value):
            raise AssertionError("a walk must ship walkers only")

        monkeypatch.setattr(spark.sparkContext, "broadcast", refuse)
        seg = engine.walk(starts=engine.vertices()[:20], length=5, seed=12)
        assert set(seg.walker) == set(range(20)) and (seg.step > 0).any()

    def test_engines_sharing_pids_keep_their_own_edges(self, spark):
        """Two engines over the same vertices (so the same pids) but
        disjoint edges, walked alternately, never read each other's
        resident stores."""
        src = np.arange(12)
        graphs = [pd.DataFrame({"src": src, "dst": (src + k) % 12, "bias": 1}) for k in (1, 5)]
        engines = [SparkBingoEngine(spark, g, n_parts=4) for g in graphs]
        for rep in range(2):
            for g, eng in zip(graphs, engines):
                seg = eng.walk(starts=src, length=6, seed=rep)
                has = set(zip(g.src, g.dst))
                for _, grp in seg.groupby("walker"):
                    vs = grp.vertex.tolist()
                    assert len(vs) == 7
                    assert all(e in has for e in zip(vs[:-1], vs[1:]))

    def test_replaced_broadcasts_are_destroyed(self, spark, small_edges):
        """Each partition has one live broadcast: updates destroy the
        ones they replace, and walks create none."""
        tmp = spark.sparkContext._temp_dir
        before = len(os.listdir(tmp))
        plan = make_update_plan(small_edges, batch_size=80, n_batches=3,
                                mode="mixed", seed=34)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        for b in plan.batches:
            eng.apply_updates(b)
            eng.walk(starts=eng.vertices()[:20], length=4, seed=13)
        assert len(os.listdir(tmp)) - before <= eng.n_parts

    def test_close_destroys_broadcasts(self, spark, small_edges):
        """``close`` leaves the session's temp dir as before the build,
        twice is harmless, and another engine on the session still walks."""
        tmp = spark.sparkContext._temp_dir
        before = len(os.listdir(tmp))
        plan = make_update_plan(small_edges, batch_size=80, n_batches=1,
                                mode="mixed", seed=35)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        eng.apply_updates(plan.batches[0])
        eng.walk(starts=eng.vertices()[:20], length=4, seed=14)
        eng.close()
        assert len(os.listdir(tmp)) == before
        eng.close()
        assert len(eng.vertices()) == 0 and eng.edges().empty
        other = SparkBingoEngine(spark, small_edges, n_parts=4)
        seg = other.walk(starts=other.vertices()[:20], length=4, seed=15)
        assert set(seg.walker) == set(range(20)) and (seg.step > 0).any()
        other.close()

    @pytest.fixture
    def task_per_partition(self, spark):
        """Run each pid's group in its own task: adaptive execution would
        otherwise coalesce these tiny shuffles into one task, whose worker
        exits with the failure and takes its cache along."""
        keys = {"spark.sql.adaptive.coalescePartitions.enabled": "false",
                "spark.sql.shuffle.partitions": "8"}
        before = {k: spark.conf.get(k) for k in keys}
        for k, v in keys.items():
            spark.conf.set(k, v)
        yield
        for k, v in before.items():
            spark.conf.set(k, v)

    @pytest.mark.usefixtures("task_per_partition")
    def test_failed_batch_leaves_no_trace(self, spark):
        """A batch whose valid heavy insert lands in one partition and
        whose bad bias fails another changes nothing: no worker keeps the
        partly updated store under a token the driver adopts."""
        src = np.arange(8)
        edges = pd.DataFrame({"src": src, "dst": (src + 1) % 8, "bias": 1})
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        pid = partition_of(src, 4)
        starts = np.zeros(500, dtype=np.int64)
        for other in (int(src[pid == p][0]) for p in set(pid) - {pid[0]}):
            eng.walk(starts=starts, length=1, seed=other)  # 0's store is resident
            batch = pd.DataFrame({"op": [1, 1], "src": [0, other], "dst": [999, 99],
                                  "bias": [1e6, -1.0]})
            with pytest.raises(Exception, match="finite and positive"):
                eng.apply_updates(batch)
            pd.testing.assert_frame_equal(eng.edges(), edges, check_dtype=False)
            for seed in range(6):
                seg = eng.walk(starts=starts, length=1, seed=seed)
                assert 999 not in set(seg.vertex)
