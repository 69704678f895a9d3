"""Parallel batched updates (paper §5.2): the two-phase delete-and-swap
kernel and the per-vertex insert→delete→rebuild batch path."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore, BingoVertex
from repro.core.batched import apply_vertex_batch, batched_delete, plan_two_phase_delete
from repro.core.store import resolve_net_effects
from repro.graphs.dynamic_graph import Adjacency
from repro.graphs.updates import make_update_plan, apply_updates
from repro.synth_data import graph_edges
from tests.util import assert_distribution, rng, weights


class TestTwoPhasePlan:
    def test_empty(self):
        slots, fillers, nd = plan_two_phase_delete(5, [])
        assert len(slots) == 0 and len(fillers) == 0 and nd == 5

    def test_all_front(self):
        slots, fillers, nd = plan_two_phase_delete(6, [0, 1])
        np.testing.assert_array_equal(slots, [0, 1])
        np.testing.assert_array_equal(fillers, [4, 5])
        assert nd == 4

    def test_all_tail_gamma_equals_n(self):
        # Phase (i) handles every doomed element; no fills needed.
        slots, fillers, nd = plan_two_phase_delete(6, [4, 5])
        assert len(slots) == 0 and len(fillers) == 0 and nd == 4

    def test_paper_fig10b_mix(self):
        # Doomed front slot must NOT be filled by a doomed tail element.
        slots, fillers, nd = plan_two_phase_delete(10, [0, 9, 5, 7])
        np.testing.assert_array_equal(slots, [0, 5])
        np.testing.assert_array_equal(fillers, [6, 8])
        assert nd == 6

    def test_fillers_never_deleted(self):
        g = rng(1)
        for _ in range(50):
            d = int(g.integers(2, 40))
            n = int(g.integers(1, d))
            dels = g.choice(d, size=n, replace=False)
            slots, fillers, nd = plan_two_phase_delete(d, dels)
            assert nd == d - n
            assert len(slots) == len(fillers)
            assert not np.isin(fillers, dels).any()
            assert (fillers >= nd).all()
            assert (slots < nd).all()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            plan_two_phase_delete(5, [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            plan_two_phase_delete(5, [5])

    def test_delete_everything(self):
        slots, fillers, nd = plan_two_phase_delete(4, [0, 1, 2, 3])
        assert nd == 0 and len(slots) == 0

    def test_apply_semantics_match_sequential(self):
        # Applying the plan to an array equals any order of pop_swap-free
        # multiset deletion.
        g = rng(2)
        for _ in range(30):
            d = int(g.integers(2, 30))
            arr = g.integers(0, 1000, d)
            n = int(g.integers(1, d))
            dels = g.choice(d, size=n, replace=False)
            slots, fillers, nd = plan_two_phase_delete(d, dels)
            out = arr.copy()
            out[slots] = out[fillers]
            survivors = sorted(np.delete(arr, dels).tolist())
            assert sorted(out[:nd].tolist()) == survivors


def row_of(dsts, biases):
    """The adjacency row of vertex 0 over ``dsts`` / ``biases``."""
    return Adjacency.from_edges(
        pd.DataFrame({"src": 0, "dst": dsts, "bias": biases})
    ).row(0)


class TestBatchedVertexOps:
    def test_batched_delete_matches_streaming(self):
        g = rng(3)
        biases = g.integers(1, 256, 30)
        v_batch = BingoVertex(biases)
        v_stream = BingoVertex(biases)
        victims = g.choice(30, size=12, replace=False)
        batched_delete(v_batch, victims)
        v_batch._finalize_update()
        # Highest index first, so each swap moves a survivor.
        for i in sorted(victims.tolist(), reverse=True):
            v_stream.delete(i)
        v_batch.check_invariants()
        assert v_batch.degree == v_stream.degree
        survivors = sorted(np.delete(biases, victims).tolist())
        assert sorted(weights(v_batch)) == sorted(weights(v_stream)) == survivors
        assert v_batch.total_weight == v_stream.total_weight

    def test_apply_vertex_batch_insert_then_delete(self):
        v = BingoVertex([4, 5, 6])
        row = row_of([1, 2, 3], [4, 5, 6])
        apply_vertex_batch(v, [(7, 8), (9, 2)], [1, 3], row)
        v.check_invariants()
        assert sorted(row.dst.view()) == [2, 7, 9]
        assert weights(v) == row.bias.view().tolist()
        assert v.total_weight == 15

    def test_single_rebuild_distribution(self):
        g = rng(4)
        biases = g.integers(1, 64, 20)
        v = BingoVertex(biases)
        row = row_of(np.arange(20), biases)
        apply_vertex_batch(v, [(100, 32), (101, 7)], [0, 5, 19], row)
        v.check_invariants()
        assert weights(v) == row.bias.view().tolist()
        probs = row.bias.view() / row.bias.view().sum()
        assert_distribution(v.sample(rng(5), 60_000), probs)

    def test_float_vertex_batch(self):
        v = BingoVertex([0.5, 1.5, 2.5])
        row = row_of([1, 2, 3], [0.5, 1.5, 2.5])
        apply_vertex_batch(v, [(4, 0.25)], [2], row)
        v.check_invariants()
        assert sorted(row.dst.view()) == [1, 3, 4]
        np.testing.assert_array_equal(weights(v), row.bias.view() * v.lam)


class TestNetEffects:
    def test_plain_insert_delete(self):
        batch = pd.DataFrame(
            {"op": [1, -1], "src": [0, 1], "dst": [5, 6], "bias": [2, 0]}
        )
        present = {(1, 6)}
        ins, dels = resolve_net_effects(lambda u, v: (u, v) in present, batch)
        assert ins == {0: [(5, 2)]}
        assert dels == {1: [6]}

    def test_insert_then_delete_cancels(self):
        batch = pd.DataFrame(
            {"op": [1, -1], "src": [0, 0], "dst": [5, 5], "bias": [2, 0]}
        )
        ins, dels = resolve_net_effects(lambda u, v: False, batch)
        assert ins == {} and dels == {}

    def test_delete_then_reinsert_becomes_update(self):
        batch = pd.DataFrame(
            {"op": [-1, 1], "src": [0, 0], "dst": [5, 5], "bias": [0, 9]}
        )
        # Edge was present: net effect is nil presence-wise; our semantics
        # treat it as no net change (bias updates need explicit support).
        ins, dels = resolve_net_effects(lambda u, v: True, batch)
        assert dels == {}

    def test_double_insert_rejected(self):
        batch = pd.DataFrame(
            {"op": [1, 1], "src": [0, 0], "dst": [5, 5], "bias": [2, 2]}
        )
        with pytest.raises(KeyError):
            resolve_net_effects(lambda u, v: False, batch)

    def test_one_probe_per_edge(self):
        batch = pd.DataFrame({
            "op": [1, -1, 1, -1, 1, -1],
            "src": [0, 0, 0, 1, 2, 2],
            "dst": [5, 5, 5, 6, 7, 8],
            "bias": [2, 0, 3, 0, 1, 0],
        })
        present = {(1, 6), (2, 8)}
        probes = Counter()

        def has_edge(u, v):
            probes[(u, v)] += 1
            return (u, v) in present

        ins, dels = resolve_net_effects(has_edge, batch)
        assert probes == {(0, 5): 1, (1, 6): 1, (2, 7): 1, (2, 8): 1}
        assert ins == {0: [(5, 3)], 2: [(7, 1)]}
        assert dels == {1: [6], 2: [8]}

    def test_delete_missing_rejected(self):
        batch = pd.DataFrame({"op": [-1], "src": [0], "dst": [5], "bias": [0]})
        with pytest.raises(KeyError):
            resolve_net_effects(lambda u, v: False, batch)


@pytest.mark.parametrize("mode", ["insertion", "deletion", "mixed"])
class TestStoreEquivalence:
    """Batched path == streaming path == pandas ground truth, per §6.1
    update workloads on a lite graph."""

    def test_paths_agree(self, mode):
        edges = graph_edges("AM").head(4000)
        plan = make_update_plan(edges, batch_size=100, n_batches=3, mode=mode, seed=5)
        st_s = BingoStore(plan.initial)
        st_b = BingoStore(plan.initial)
        for b in plan.batches:
            st_s.apply_stream(b)
            st_b.apply_batch(b)
        st_s.check_invariants()
        st_b.check_invariants()
        truth = apply_updates(plan.initial, plan.batches)
        for st in (st_s, st_b):
            got = st.edges()
            pd.testing.assert_frame_equal(
                got.astype({"src": np.int64, "dst": np.int64}),
                truth.astype({"src": np.int64, "dst": np.int64}),
                check_dtype=False,
            )


class TestFloatStore:
    """``BingoStore`` on float biases under updates (§4.3 λ scaling)."""

    EDGES = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 0], "bias": [0.5, 1.25, 0.3]})

    @pytest.mark.parametrize("path", ["apply_batch", "apply_stream"])
    def test_new_source_takes_lambda_from_first_bias(self, path):
        st = BingoStore(self.EDGES)
        batch = pd.DataFrame(
            {"op": [1, 1], "src": [5, 5], "dst": [0, 1], "bias": [1e9, 2.5e8]}
        )
        getattr(st, path)(batch)
        st.check_invariants()
        pd.testing.assert_frame_equal(
            st.edges(), apply_updates(self.EDGES, [batch]), check_dtype=False
        )
        hops = st.sample_next(rng(1), np.full(40_000, 5))
        assert_distribution((hops == 1).astype(int), [0.8, 0.2])

    @pytest.mark.parametrize("path", ["apply_batch", "apply_stream"])
    def test_overflowing_bias_rejected(self, path):
        st = BingoStore(self.EDGES)  # vertex 1 has λ = 10
        with pytest.raises(ValueError):
            getattr(st, path)(
                pd.DataFrame({"op": [1], "src": [1], "dst": [7], "bias": [1e18]})
            )
        st.check_invariants()
        assert not st.has_edge(1, 7)
