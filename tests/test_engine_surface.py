"""The engine surface every Table 3 framework shares: build from an edge
frame, ingest rounds with ``apply_batch``, report ``edges()`` and
``memory_bytes()``, and draw next hops with ``sample_next``."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.table3 import STORES
from repro.graphs.updates import apply_updates, make_update_plan
from repro.synth_data import graph_edges
from tests.util import rng


@pytest.fixture(scope="module")
def plan():
    return make_update_plan(graph_edges("AM").head(1500), batch_size=50,
                            n_batches=3, mode="mixed", seed=41)


@pytest.fixture(params=list(STORES.values()), ids=list(STORES))
def store(request, plan):
    st = request.param(plan.initial)
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
