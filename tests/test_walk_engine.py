"""Walk engine + application kernels: first-order bias correctness,
node2vec's Eq. 1 second-order distribution, PPR termination, dead ends."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.bench.table3 import STORES
from repro.core import BingoStore
from repro.walk import (
    Node2VecParams,
    deepwalk,
    node2vec,
    ppr,
    random_walk,
    simple_sampling,
)
from repro.walk.engine import advance
from tests.util import assert_distribution, rng


def store_from(rows):
    return BingoStore(pd.DataFrame(rows, columns=["src", "dst", "bias"]))


@pytest.fixture
def triangle():
    # 0 -> {1 (w3), 2 (w1)}; 1 -> {0}; 2 -> {0}; always returns to 0.
    return store_from([(0, 1, 3), (0, 2, 1), (1, 0, 1), (2, 0, 1)])


class TestFirstOrder:
    def test_paths_start_at_starts(self, triangle):
        res = random_walk(triangle, [0, 1, 2], rng(1), length=5)
        np.testing.assert_array_equal(res.paths[:, 0], [0, 1, 2])

    def test_walk_length(self, triangle):
        res = random_walk(triangle, [0] * 4, rng(2), length=7)
        assert res.paths.shape == (4, 8)
        assert (res.paths >= 0).all()
        assert res.steps == 4 * 7

    def test_edges_followed_exist(self, triangle):
        res = random_walk(triangle, [0] * 20, rng(3), length=10)
        for row in res.paths:
            for a, b in zip(row[:-1], row[1:]):
                if b >= 0:
                    assert triangle.has_edge(int(a), int(b))

    def test_first_step_distribution(self, triangle):
        res = random_walk(triangle, [0] * 40_000, rng(4), length=1)
        first = res.paths[:, 1]
        assert_distribution(first - 1, [0.75, 0.25])  # w3 vs w1

    def test_dead_end_terminates(self):
        st = store_from([(0, 1, 1)])  # vertex 1 has no out-edges
        res = random_walk(st, [0], rng(5), length=10)
        np.testing.assert_array_equal(res.paths[0, :2], [0, 1])
        assert (res.paths[0, 2:] == -1).all()

    def test_start_at_dead_end(self):
        st = store_from([(0, 1, 1)])
        res = random_walk(st, [1], rng(6), length=5)
        assert (res.paths[0, 1:] == -1).all()
        assert res.steps == 0

    def test_visits_count_all_hops(self, triangle):
        res = random_walk(triangle, [0] * 10, rng(7), length=4)
        assert res.visits.sum() == (res.paths >= 0).sum()

    def test_stationary_distribution_star(self):
        # Star: center 0 <-> leaves; leaf choice follows biases each visit.
        st = store_from(
            [(0, 1, 1), (0, 2, 2), (0, 3, 5), (1, 0, 1), (2, 0, 1), (3, 0, 1)]
        )
        res = random_walk(st, [0] * 3000, rng(8), length=20)
        leaves = res.paths[:, 1::2].ravel()  # odd steps are leaves
        leaves = leaves[leaves > 0]
        assert_distribution(leaves - 1, np.array([1, 2, 5]) / 8)


class TestNode2Vec:
    def _second_step_dist(self, p, q, n=40_000):
        # Graph: walk 0 -> 1 happened; from 1 the candidates are
        # 0 (distance 0), 2 (distance 1: edge 0-2 exists), 3 (distance 2).
        st = store_from(
            [
                (0, 1, 1), (0, 2, 1),
                (1, 0, 1), (1, 2, 1), (1, 3, 1),
                (2, 0, 1), (3, 1, 1),
            ]
        )
        res = random_walk(
            st, [0] * n, rng(9), length=2, node2vec=Node2VecParams(p=p, q=q)
        )
        two = res.paths[res.paths[:, 1] == 1, 2]  # walks that went 0 -> 1
        two = two[two >= 0]
        f = np.array([1.0 / p, 1.0, 1.0 / q])  # factors for 0, 2, 3
        return two, f / f.sum()

    def test_eq1_distribution_p_half_q_two(self):
        two, expect = self._second_step_dist(0.5, 2.0)
        remap = {0: 0, 2: 1, 3: 2}
        mapped = np.array([remap[int(x)] for x in two])
        assert_distribution(mapped, expect)

    def test_eq1_distribution_backtrack_heavy(self):
        two, expect = self._second_step_dist(0.2, 5.0)
        remap = {0: 0, 2: 1, 3: 2}
        mapped = np.array([remap[int(x)] for x in two])
        assert_distribution(mapped, expect)

    def test_eq1_uniform_when_p_q_one(self):
        two, expect = self._second_step_dist(1.0, 1.0)
        np.testing.assert_allclose(expect, 1 / 3)
        remap = {0: 0, 2: 1, 3: 2}
        mapped = np.array([remap[int(x)] for x in two])
        assert_distribution(mapped, expect)

    def test_first_step_is_first_order(self):
        st = store_from([(0, 1, 3), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
        res = random_walk(st, [0] * 30_000, rng(10), length=1,
                          node2vec=Node2VecParams(0.25, 4.0))
        assert_distribution(res.paths[:, 1] - 1, [0.75, 0.25])


def mixed_graph():
    """40 vertices with 5 out-edges each and quarter-unit biases; about
    half the edges have a reverse edge."""
    r = np.random.default_rng(5)
    edges = {}
    for u in range(40):
        for v in r.choice(np.delete(np.arange(40), u), 5, replace=False):
            edges[(u, int(v))] = r.integers(1, 20) / 4
            if r.random() < 0.5:
                edges.setdefault((int(v), u), r.integers(1, 20) / 4)
    src, dst = zip(*edges)
    return pd.DataFrame({"src": src, "dst": dst, "bias": list(edges.values())})


#: sha256 prefixes of the node2vec paths of ``test_paths_unchanged_without_fold``,
#: recorded with the rejection under max(1/p, 1, 1/q) that had no outlier
#: fold and probed every candidate. The BINGO and KnightKing entries are
#: that engine's paths over their per-walker draws (``core.store.draw_each``),
#: which the current engine reproduces; BINGO's over draws whose dense or
#: decimal rejection takes its first trial from the walker's second uniform.
PLAIN_PATHS = {
    ("bingo", 0.5, 0.5): "bb004e6e7accd89a",
    ("bingo", 2.0, 0.5): "454ac4c4b83f0704",
    ("bingo", 4.0, 2.0): "31efd85b6531d254",
    ("knightking", 0.5, 0.5): "9a7ab14fdac398da",
    ("knightking", 2.0, 0.5): "646431a1d3e2468b",
    ("knightking", 4.0, 2.0): "0be6934db724135b",
    ("gsampler", 0.5, 0.5): "ed806973f3f3b3c0",
    ("gsampler", 2.0, 0.5): "590443f4dd4c4ed1",
    ("gsampler", 4.0, 2.0): "0c93a1047a314d13",
    ("flowwalker", 0.5, 0.5): "64e83301c32646a6",
    ("flowwalker", 2.0, 0.5): "1dd9a8064a82fdba",
    ("flowwalker", 4.0, 2.0): "0fcfc0997c861b37",
}


class Counting:
    """A store that counts its proposals (walkers drawn) and its
    ``has_edge`` probes."""

    def __init__(self, store):
        self.store, self.proposals, self.probes = store, 0, 0

    def sample_next(self, r, cur):
        self.proposals += len(cur)
        return self.store.sample_next(r, cur)

    def has_edge(self, u, x):
        self.probes += 1
        return self.store.has_edge(u, x)

    def edge_share(self, src, dst):
        return self.store.edge_share(src, dst)


@pytest.mark.parametrize("fw", list(STORES))
class TestNode2VecFold:
    """The return outlier and the lower bound of the rejection, on every
    store the engine walks."""

    #: (p, q, whether 1 -> 0 exists). The first two fold 1/p = 4 and 5 out
    #: of the envelope; without 1 -> 0 there is nothing to fold.
    CASES = {"fold": (0.25, 2.0, True), "fold_q_below_one": (0.2, 0.5, True),
             "no_return_edge": (0.25, 2.0, False), "p_above_one": (2.0, 0.5, True)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_eq1_with_biases(self, fw, case):
        # Walks 0 -> 1 -> x. From 1: 0 is the return, 2 is at distance 1
        # (0 -> 2 exists), 3 and 4 at distance 2.
        p, q, back = self.CASES[case]
        w = {0: 2.5, 2: 1.5, 3: 4.0, 4: 0.75}
        if not back:
            del w[0]
        rows = [(0, 1, 9.0), (0, 2, 1.0), *[(1, x, b) for x, b in w.items()],
                (2, 0, 1.0), (3, 1, 1.0), (4, 1, 2.0)]
        st = STORES[fw](pd.DataFrame(rows, columns=["src", "dst", "bias"]))
        res = random_walk(st, [0] * 60_000, rng(23), length=2,
                          node2vec=Node2VecParams(p=p, q=q))
        two = res.paths[res.paths[:, 1] == 1, 2]
        xs = list(w)
        f = {0: 1 / p, 2: 1.0, 3: 1 / q, 4: 1 / q}
        expect = np.array([w[x] * f[x] for x in xs])
        assert (two >= 0).all()
        assert_distribution(np.searchsorted(xs, two), expect / expect.sum())

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (2.0, 0.5), (4.0, 2.0)])
    def test_paths_unchanged_without_fold(self, fw, p, q):
        # 1/p <= max(1, 1/q): nothing folds, and the coins are drawn as
        # before, so the walks are too.
        res = random_walk(STORES[fw](mixed_graph()), np.arange(40).repeat(10), rng(7),
                          length=12, node2vec=Node2VecParams(p, q))
        assert hashlib.sha256(res.paths.tobytes()).hexdigest()[:16] == PLAIN_PATHS[fw, p, q]

    def test_probe_budget(self, fw):
        # At p = 0.5, q = 2 a return is never probed, and a coin below
        # 1/q = 0.5 accepts any other candidate unprobed.
        st = Counting(STORES[fw](mixed_graph()))
        res = random_walk(st, np.arange(40).repeat(25), rng(24), length=20,
                          node2vec=Node2VecParams(0.5, 2.0))
        assert res.steps == 1000 * 20
        assert st.probes <= 0.6 * st.proposals


class TestPPR:
    def test_expected_length(self, triangle):
        res = ppr(triangle, rng(11), stop_prob=1 / 20, max_length=200,
                  starts=[0] * 5000)
        # Geometric termination: E[length] = 1/stop_prob = 20, sd 20/sqrt(n).
        assert (res.paths >= 0).sum(axis=1).mean() - 1 == pytest.approx(20.0, rel=0.15)

    def test_zero_stop_runs_full(self, triangle):
        res = random_walk(triangle, [0] * 10, rng(12), length=15, stop_prob=0.0)
        assert (res.paths >= 0).all()

    def test_always_stop(self, triangle):
        res = random_walk(triangle, [0] * 10, rng(13), length=15, stop_prob=1.0)
        assert (res.paths[:, 1:] == -1).all()


class TestApps:
    def test_deepwalk_defaults(self, triangle):
        res = deepwalk(triangle, rng(14), length=5)
        assert res.paths.shape[0] == 3  # one walker per vertex

    def test_walker_cap(self, triangle):
        res = deepwalk(triangle, rng(15), length=3, walkers=2)
        assert res.paths.shape[0] == 2

    def test_node2vec_app(self, triangle):
        res = node2vec(triangle, rng(16), length=4)
        assert (res.paths >= 0).all()

    def test_simple_sampling_is_one_hop(self, triangle):
        res = simple_sampling(triangle, rng(17))
        assert res.paths.shape[1] == 2

    def test_ppr_visits_normalizable(self, triangle):
        res = ppr(triangle, rng(18), starts=[0] * 200)
        assert res.visits.sum() > 0


class TestAdvance:
    """The one step loop (``walk.engine.advance``) on its own."""

    def test_stay_resumes_ring_paths(self):
        # A directed ring 0 -> 1 -> ... -> 11 -> 0; ``stay`` refuses every
        # fourth vertex, so each call stops walkers there, as a Spark task
        # stops walkers that cross into another partition.
        st = store_from([(i, (i + 1) % 12, 1) for i in range(12)])
        starts = np.arange(30) % 12
        cur, step = starts.copy(), np.zeros(30, dtype=np.int64)
        alive = np.ones(30, dtype=bool)
        moves, r, length = [], rng(19), 10
        while (alive & (step < length)).any():
            call = []
            for idx in advance(st, r, cur, step, alive, length=length,
                               stay=lambda c: c % 4 != 0):
                call += zip(idx.tolist(), step[idx].tolist(), cur[idx].tolist())
            # A walker stops at the first vertex ``stay`` refuses.
            assert all(v % 4 or s == step[w] for w, s, v in call)
            assert ((cur % 4 == 0) | (step == length)).all()
            moves += call
        assert alive.all() and (step == length).all()
        assert len(set((w, s) for w, s, _ in moves)) == len(moves) == 30 * length
        for w, s, v in moves:
            assert v == (starts[w] + s) % 12

    def test_node2vec_reaches_length_on_edges(self):
        st = store_from(
            [(0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 2, 1), (1, 3, 1), (2, 0, 1), (3, 1, 1)]
        )
        n, length = 500, 6
        cur, step = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        at = {w: 0 for w in range(n)}
        for idx in advance(st, rng(20), cur, step, alive, length=length,
                           node2vec=Node2VecParams(0.5, 2.0)):
            for w in idx.tolist():
                assert st.has_edge(at[w], int(cur[w]))
                at[w] = int(cur[w])
        assert alive.all() and (step == length).all()


class TestValidation:
    @pytest.mark.parametrize("p, q", [(0, 1), (-1, 1), (np.nan, 1), (1, 0),
                                      (1, -2), (1, np.inf)])
    def test_node2vec_params_finite_positive(self, p, q):
        with pytest.raises(ValueError):
            Node2VecParams(p=p, q=q)

    @pytest.mark.parametrize("kw", [{"stop_prob": np.nan}, {"stop_prob": -0.5},
                                    {"stop_prob": 1.5}, {"length": -1},
                                    {"stop_prob": 0.1, "node2vec": Node2VecParams()}],
                             ids=["nan", "negative", "above_one", "length", "node2vec"])
    def test_bad_walk_raises_before_any_draw(self, triangle, kw):
        r = rng(21)
        state = r.bit_generator.state
        with pytest.raises(ValueError):
            random_walk(triangle, [0, 1], r, **kw)
        assert r.bit_generator.state == state
