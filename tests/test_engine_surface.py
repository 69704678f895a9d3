"""The engine surface every Table 3 framework shares: build from an edge
frame, ingest rounds with ``apply_batch``, report ``edges()`` and
``memory_bytes()``, and draw next hops with ``sample_next`` — on integer
and on float biases (ids ending in ``-float``)."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.table3 import STORES
from repro.graphs.updates import apply_updates, make_update_plan
from repro.synth_data import graph_edges
from tests.util import assert_distribution, reinsert_case, rng


@pytest.fixture(scope="module")
def plans():
    """The AM-lite slice, and the same slice with float biases (§4.3)."""
    edges = graph_edges("AM").head(1500)
    graphs = {"int": edges, "float": edges.assign(bias=edges.bias / 7.0)}
    return {
        bias: make_update_plan(e, batch_size=50, n_batches=3, mode="mixed", seed=41)
        for bias, e in graphs.items()
    }


CASES = [(name, bias) for bias in ("int", "float") for name in STORES]


@pytest.fixture(params=CASES,
                ids=[name if bias == "int" else f"{name}-float" for name, bias in CASES])
def case(request):
    return request.param


@pytest.fixture
def plan(case, plans):
    return plans[case[1]]


@pytest.fixture
def store(case, plan):
    st = STORES[case[0]](plan.initial)
    for batch in plan.batches:
        st.apply_batch(batch)
    return st


def test_edges_match_ground_truth(store, plan):
    got = store.edges().astype({"src": np.int64, "dst": np.int64})
    truth = apply_updates(plan.initial, plan.batches)
    pd.testing.assert_frame_equal(got, truth, check_dtype=False)


def test_memory_bytes(store):
    mem = store.memory_bytes()
    assert len(mem) == 2
    assert all(isinstance(x, int) and x >= 0 for x in mem)


def test_dead_end(store):
    edges = store.edges()
    sinks = np.setdiff1d(edges.dst, edges.src)[:3]
    live = store.vertices()[:3]
    assert len(sinks) and len(live)
    out = store.sample_next(rng(0), np.concatenate([sinks, live]))
    assert (out[: len(sinks)] == -1).all()
    assert all(store.has_edge(u, v) for u, v in zip(live, out[len(sinks):]))


BAD_BIASES = pytest.mark.parametrize(
    "bad", [2**53 + 1, 0.0, np.nan, np.inf, -1.0],
    ids=["rounded", "zero", "nan", "inf", "negative"])


@BAD_BIASES
@pytest.mark.parametrize("name", list(STORES))
def test_failed_batch_changes_nothing(name, bad):
    """A batch with one bad bias raises before any edge changes: 0 -> 5
    (bias 4) is not kept, and vertex 0 still draws 1 and 2 evenly."""
    initial = pd.DataFrame({"src": [0, 0], "dst": [1, 2], "bias": [1, 1]})
    st = STORES[name](initial)
    batch = pd.DataFrame({"op": [1, 1], "src": [0, 0], "dst": [5, 6], "bias": [4, bad]})
    with pytest.raises(ValueError):
        st.apply_batch(batch)
    pd.testing.assert_frame_equal(st.edges(), initial, check_dtype=False)
    if hasattr(st, "check_invariants"):
        st.check_invariants()
    hops = st.sample_next(rng(7), np.zeros(60_000, dtype=np.int64))
    assert set(np.unique(hops)) <= {1, 2}
    assert_distribution(hops - 1, [0.5, 0.5])


@BAD_BIASES
@pytest.mark.parametrize("name", list(STORES))
def test_bad_bias_rejected_at_build(name, bad):
    """No framework builds over a bias it could not draw by: 0 -> 1
    (bias 1) next to 0 -> 2 (the bad bias) raises ``ValueError``."""
    with pytest.raises(ValueError):
        STORES[name](pd.DataFrame({"src": [0, 0], "dst": [1, 2], "bias": [1, bad]}))


@pytest.mark.parametrize("name", list(STORES))
def test_emptied_store_keeps_edge_dtypes(name):
    """Deleting every edge leaves an empty edge list with the dtypes of a
    full one: int64 src/dst and float64 bias."""
    initial = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 0], "bias": [1, 2, 3]})
    st = STORES[name](initial)
    st.apply_batch(initial.assign(op=-1))
    got = st.edges()
    assert got.empty
    assert got.dtypes.to_dict() == {"src": np.int64, "dst": np.int64, "bias": np.float64}


def test_reinsert_takes_new_bias(case):
    """An edge that one batch deletes and inserts again keeps its new
    bias, also on a vertex the delete empties for a moment."""
    name, bias = case
    initial, batch, after = reinsert_case(1 if bias == "int" else 7)
    st = STORES[name](initial)
    st.apply_batch(batch)
    pd.testing.assert_frame_equal(st.edges(), after, check_dtype=False)
    if hasattr(st, "check_invariants"):
        st.check_invariants()
    hops = st.sample_next(rng(9), np.zeros(60_000, dtype=np.int64))
    assert_distribution(hops - 1, [5 / 7, 2 / 7])


def test_single_walker_draws_follow_eq2(case):
    """One walker per ``sample_next`` call takes the dispatch kernel's
    scalar branch, ``draw(u, 1)``; its hops over 0 -> 1, 2, 3 with
    biases 1, 2 and 5 (or the same over 7) follow Eq. 2."""
    name, bias = case
    b = np.array([1, 2, 5]) if bias == "int" else np.array([1, 2, 5]) / 7
    st = STORES[name](pd.DataFrame({"src": 0, "dst": [1, 2, 3], "bias": b}))
    r = rng(11)
    hops = np.concatenate([st.sample_next(r, [0]) for _ in range(8000)])
    assert_distribution(hops - 1, [1 / 8, 2 / 8, 5 / 8])
