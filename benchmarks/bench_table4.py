"""Table 4 benchmarks: the batched update machinery whose conversion
ratios Table 4 reports (`python jobs/table4_conversion.py` prints the
full matrix)."""
import pytest

from repro.core import BingoStore
from repro.graphs.updates import make_update_plan
from repro.synth_data import graph_edges


@pytest.fixture(scope="module")
def plan():
    return make_update_plan(
        graph_edges("LJ"), batch_size=500, n_batches=10, mode="mixed", seed=9
    )


def test_batched_mixed_round(benchmark, plan):
    batches = iter(plan.batches)

    def setup():
        return (BingoStore(plan.initial), next(batches)), {}

    benchmark.pedantic(
        lambda store, batch: store.apply_batch(batch),
        setup=setup, rounds=5, iterations=1,
    )


def test_conversion_stats_collection(benchmark, plan):
    store = BingoStore(plan.initial)
    store.apply_batch(plan.batches[0])
    benchmark(store.conversion_stats)
