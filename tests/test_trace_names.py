"""The ``repro`` names that the benchmark's per-layer tracer wraps, and the
work counts it reads from their arguments.

``perfbench/layers.py`` replaces internal functions by name, and the
tier-1 suite never runs a traced benchmark, so a removed or renamed name
— or a changed argument that a work count is sized by — would otherwise
fail only there. The list is read from ``layers.py``."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import BingoStore
from repro.core.store import resolve_net_effects
from repro.graphs.updates import make_update_plan
from repro.synth_data import graph_edges

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve(layers):
    for owner, attr, label, _ in layers.PATCHES:
        assert attr in owner.__dict__, f"{label}: {owner.__name__}.{attr} is gone"
    assert callable(layers.store.iter_vertex_groups)


def test_update_work_counts(layers):
    plan = make_update_plan(graph_edges("AM").head(2000), batch_size=200,
                            n_batches=1, mode="mixed", seed=3)
    batch = plan.batches[0]
    ins, dels = resolve_net_effects(BingoStore(plan.initial).has_edge, batch)
    n_ins = sum(map(len, ins.values()))
    n_del = sum(map(len, dels.values()))
    assert n_ins and n_del
    tr = layers.Tracer()
    with tr.installed():
        st = BingoStore(plan.initial)
        st.apply_batch(batch)
    t = layers.span_table(tr)

    def work(label):
        return int(t["work"][t["label"] == label].sum())

    assert work("core.update.resolve") == len(batch)
    assert work("core.update.vertex_batch") == n_ins + n_del
    assert work("core.update.batched_delete") == n_del


def test_node2vec_spans_nest_in_the_walk(layers):
    # walk.n2v.has_edge_calls counts core.has_edge spans whose parent is
    # walk.random_walk, and accept_ratio divides steps by sample_next work:
    # every proposal, a return to the previous vertex included, is drawn by
    # sample_next. At the app's p = 0.5, q = 2 the envelope is 1, not 1/p.
    # GO-lite has no dead end, whose draws would count as proposals too.
    st = BingoStore(graph_edges("GO"))
    tr = layers.Tracer()
    with tr.installed():
        res = layers.apps.node2vec(st, np.random.default_rng(4), length=10, walkers=200)
    t = layers.span_table(tr)
    has_edge = t["label"] == "core.has_edge"
    assert has_edge.any()
    assert (t["parent"][has_edge] == "walk.random_walk").all()
    proposals = int(t["work"][t["label"] == "core.sample_next"].sum())
    assert 1.6 * res.steps >= proposals >= res.steps > 0
