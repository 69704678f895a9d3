"""The per-walker draw kernel (``core.store.draw_each``) behind
``sample_next`` of ``BingoStore`` and ``KnightKingStore``: each walker's
first hop follows Eq. 2 whatever the number of walkers at its vertex and
whatever group kind its draw lands in, and the kernel's edge cases
behave like the vertex-grouping ``dispatch`` kernel's."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.bench.table3 import STORES
from repro.core import AliasTable, BingoStore
from repro.core.store import draw_each
from repro.sota import KnightKingStore
from tests.util import rng

#: Smallest chi-square p-value accepted; a biased draw gives ~0.
MIN_PVALUE = 1e-6


def chi2_pvalue(draws, probs) -> float:
    """Chi-square p-value of index ``draws`` against ``probs`` (upper
    tail by Wilson-Hilferty); every cell must expect 5 draws or more."""
    probs = np.asarray(probs, dtype=np.float64)
    exp = probs * len(draws)
    assert exp.min() >= 5, "too few draws for a chi-square test"
    obs = np.bincount(draws, minlength=len(probs))
    if len(obs) > len(probs):
        return 0.0
    df = len(probs) - 1
    x = float(((obs - exp) ** 2 / exp).sum())
    z = ((x / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def kinds_graph() -> tuple[pd.DataFrame, dict]:
    """(edges, walkers per vertex) of a store whose vertices hold all five
    group kinds. Vertex ``u``'s i-th edge goes to 1000·(u+1) + i.

    - 0: d = 30, whole biases 8 + …: bit 3 in all (dense), bit 0 in two
      (sparse), bit 1 in six (regular), bit 2 in one (one-element);
    - 1: d = 5, decimal biases (a decimal group);
    - 2: d = 120, whole biases in [50, 1000);
    - 3: d = 1;
    - 4: d = 12, decimal biases in [0.5, 40).
    """
    r = np.random.default_rng(3)
    b0 = 8.0 + np.r_[[1.0] * 2, [2.0] * 6, [4.0], [0.0] * 21]
    biases = {
        0: b0,
        1: np.array([0.3, 1.7, 2.25, 4.1, 0.55]),
        2: r.integers(50, 1000, 120).astype(np.float64),
        3: np.array([2.0]),
        4: 0.5 + 39.5 * r.random(12),
    }
    walkers = {0: 100, 1: 1, 2: 40, 3: 3, 4: 9}
    edges = pd.concat([
        pd.DataFrame({"src": u, "dst": 1000 * (u + 1) + np.arange(len(b)), "bias": b})
        for u, b in biases.items()
    ], ignore_index=True)
    return edges, walkers


@pytest.fixture(scope="module")
def kinds():
    return kinds_graph()


def test_bingo_store_holds_every_group_kind(kinds):
    hist = BingoStore(kinds[0]).group_kind_histogram()
    assert set(hist) == {"dense", "sparse", "regular", "one_element", "decimal"}


@pytest.mark.parametrize("cls", [BingoStore, KnightKingStore], ids=["bingo", "knightking"])
def test_first_hops_follow_eq2_per_vertex(cls, kinds):
    edges, walkers = kinds
    st = cls(edges)
    cur = np.concatenate([np.full(m, u) for u, m in walkers.items()])
    r = rng(21)
    calls = 2000
    hops = np.empty((calls, len(cur)), dtype=np.int64)
    for c in range(calls):
        order = r.permutation(len(cur))  # a vertex's walkers interleave
        hops[c, order] = st.sample_next(r, cur[order])
    for u in walkers:
        mine = edges[edges.src == u]
        b = mine.bias.to_numpy()
        got = hops[:, cur == u].ravel() - 1000 * (u + 1)
        if len(b) == 1:
            assert (got == 0).all()
            continue
        p = chi2_pvalue(got, b / b.sum())
        assert p > MIN_PVALUE, f"vertex {u}: p = {p:.2e}"


@pytest.mark.parametrize("name", list(STORES))
class TestEdgeCases:
    def test_empty_walker_array(self, name, kinds):
        st = STORES[name](kinds[0])
        for cur in (np.array([], dtype=np.int64), []):
            out = st.sample_next(rng(1), cur)
            assert out.dtype == np.int64 and out.shape == (0,)

    def test_absent_and_emptied_vertices_give_minus_one(self, name, kinds):
        edges = kinds[0]
        st = STORES[name](edges)
        gone = edges[edges.src == 4].assign(op=-1)[["op", "src", "dst", "bias"]]
        st.apply_batch(gone)
        # 7 and 2000 have no out-edges; 4's were all deleted.
        cur = np.array([7, 0, 4, 2000, 3, 4])
        out = st.sample_next(rng(2), cur)
        assert out.dtype == np.int64
        assert out[[0, 2, 3, 5]].tolist() == [-1, -1, -1, -1]
        assert 1000 <= out[1] < 1030 and out[4] == 4000

    def test_same_seed_same_hops(self, name, kinds):
        st = STORES[name](kinds[0])
        cur = np.array([0, 2, 1, 0, 4, 2, 2, 0, 3])
        a = st.sample_next(rng(5), cur)
        b = st.sample_next(rng(5), cur.tolist())
        np.testing.assert_array_equal(a, b)


def test_kernel_draws_two_uniforms_per_walker():
    # An alias table reads only x, so the hops are a function of the
    # call's first uniform array; the rng ends where two arrays of n
    # draws leave it.
    edges = pd.DataFrame({"src": 0, "dst": [10, 11, 12], "bias": [5.0, 4.0, 3.0]})
    rows = BingoStore(edges).adj.rows
    table = AliasTable([5.0, 4.0, 3.0])
    r1, r2 = rng(8), rng(8)
    out = draw_each(r1, np.zeros(50, dtype=np.int64), rows, {0: table})
    x, _ = r2.random(50), r2.random(50)
    assert out.tolist() == [10 + table.pick(v) for v in x]
    assert r1.random() == r2.random()
