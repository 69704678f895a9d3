"""Walk-step benchmarks: one ``sample_next`` call of 4,096 walkers on
LJ-lite, for the two stores whose draw is O(1) a walker (BINGO and
KnightKing, through ``core.store.draw_each``). Walkers spread over the
graph, as in a DeepWalk step, pay the kernel's per-walker cost; walkers
crowded on the hub show what it gives up against one vectorized draw
per vertex."""
import numpy as np
import pytest

from repro.core import BingoStore
from repro.sota import KnightKingStore
from repro.synth_data import graph_edges

WALKERS = 4096
STORES = {"bingo": BingoStore, "knightking": KnightKingStore}


@pytest.fixture(scope="module")
def edges():
    return graph_edges("LJ")


@pytest.fixture(scope="module", params=list(STORES))
def store(request, edges):
    return STORES[request.param](edges)


def test_step_spread(benchmark, store):
    """One DeepWalk-like step: walkers at uniformly drawn start vertices."""
    cur = np.random.default_rng(1).choice(store.vertices(), WALKERS)
    rng = np.random.default_rng(2)
    benchmark(lambda: store.sample_next(rng, cur))


def test_step_on_hub(benchmark, store, edges):
    """Every walker at the vertex with the most out-edges."""
    hub = int(np.bincount(edges["src"].to_numpy()).argmax())
    cur = np.full(WALKERS, hub, dtype=np.int64)
    rng = np.random.default_rng(3)
    benchmark(lambda: store.sample_next(rng, cur))
