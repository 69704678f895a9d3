"""Table 3 benchmarks: one (update round + DeepWalk) per framework on
the GO graph at bench scale. The full grid (5 graphs x 3 apps x 3 update
modes x 10 rounds) is `python jobs/table3_sota.py`."""
import numpy as np
import pytest

from repro.bench.table3 import FRAMEWORKS, STORES
from repro.graphs.updates import make_update_plan
from repro.synth_data import graph_edges
from repro.walk import deepwalk

ROUND_BATCH = 300


@pytest.fixture(scope="module")
def plan():
    return make_update_plan(
        graph_edges("GO"), batch_size=ROUND_BATCH, n_batches=10,
        mode="mixed", seed=5,
    )


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_round_update_plus_walk(benchmark, plan, framework):
    """One Table 3 round: ingest a batch, then run DeepWalk."""
    batches = iter(plan.batches)

    def setup():
        store = STORES[framework](plan.initial)
        return (store, next(batches)), {}

    def one_round(store, batch):
        store.apply_batch(batch)
        deepwalk(store, np.random.default_rng(6), walkers=64, length=20)

    benchmark.pedantic(one_round, setup=setup, rounds=5, iterations=1)
