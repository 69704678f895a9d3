"""Smoke tests of the benchmark itself; no timing assertions.

    python -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import run

assert run.use_checkout_src(), "the benchmark needs the program under src/"

import checks  # noqa: E402
from repro import synth_data  # noqa: E402

TINY = run.Workload("tiny", "TINY", 20, "deepwalk", 64, 5, 2)


@pytest.fixture
def tiny_graph(monkeypatch, tmp_path):
    spec = synth_data.GraphSpec("Tiny", "TINY", 300, 6.0, "powerlaw", hub_frac=0.02)
    monkeypatch.setitem(synth_data.GRAPH_SPECS, "TINY", spec)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace, names", [(False, run.END_TO_END), (True, run.PER_LAYER)])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_graph, trace, names):
    result, lines = run.run(TINY, seed=3, seconds=0.2, trace=trace)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name]
        assert np.isfinite(m["value"])
    json.dumps(result)


def test_benchmark_json_matches_the_program():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_update_schedule_undoes_the_plan():
    from repro.graphs.updates import apply_updates, make_update_plan

    edges = synth_data.graph_edges("AM")
    plan = make_update_plan(edges, batch_size=50, n_batches=run.ROUNDS, seed=1)
    schedule = run.update_schedule(plan.batches)
    first = [next(schedule) for _ in range(2 * run.ROUNDS + 1)]
    assert checks.same_edges(apply_updates(plan.initial, first[:-1]), plan.initial)
    assert first[-1].equals(plan.batches[0])


def test_validity_check_rejects_a_non_edge_transition():
    initial = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "bias": [1, 1, 1]})
    oracle = checks.EdgeOracle(initial)
    good = np.array([[0, 1, 2, 0, -1]])
    bad = np.array([[0, 1, 2, 1, -1]])  # 2 -> 1 is not an edge
    assert oracle.non_edges(*checks.path_transitions(good)) == 0
    assert oracle.non_edges(*checks.path_transitions(bad)) == 1
    # After a batch deletes 0 -> 1, that step is no longer valid.
    oracle.apply(pd.DataFrame({"op": [-1], "src": [0], "dst": [1], "bias": [1]}))
    assert oracle.non_edges(*checks.path_transitions(good)) == 1


def test_segment_check_sees_transitions_and_gaps():
    seg = pd.DataFrame({"walker": [0, 0, 0, 1, 1], "step": [0, 1, 2, 0, 2],
                        "vertex": [0, 1, 2, 1, 0]})
    src, dst, gaps = checks.segment_transitions(seg)
    assert list(zip(src, dst)) == [(0, 1), (1, 2), (1, 0)]
    assert gaps == 1


def test_first_hop_test_rejects_a_wrong_distribution():
    rng = np.random.default_rng(0)
    dsts = np.arange(10, 60)
    biases = rng.integers(1, 100, len(dsts)).astype(float)
    right = rng.choice(dsts, 50_000, p=biases / biases.sum())
    uniform = rng.choice(dsts, 50_000)
    assert checks.first_hop_pvalue(right, dsts, biases) > run.MIN_PVALUE
    assert checks.first_hop_pvalue(uniform, dsts, biases) < run.MIN_PVALUE
    assert checks.first_hop_pvalue(np.r_[right, 99], dsts, biases) == 0.0
