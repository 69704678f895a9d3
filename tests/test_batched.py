"""Parallel batched updates (paper §5.2): net-effect resolution and the
per-vertex insert→delete→rebuild batch path, whose deletes swap one edge
at a time on the adjacency row and the sampler."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore, BingoVertex, bits
from repro.core.batched import apply_vertex_batch
from repro.core.groups import KIND_DENSE
from repro.core.store import resolve_net_effects
from repro.graphs.dynamic_graph import Adjacency
from repro.graphs.updates import make_update_plan, apply_updates
from repro.oracle import assert_equivalent
from repro.synth_data import graph_edges
from tests.test_group_oracle import GROUPS_SQL
from tests.util import assert_distribution, group_frame, rng, weights


def per_event(st, batch):
    """Apply ``batch`` as one ``apply_batch`` call per event, in order."""
    for i in range(len(batch)):
        st.apply_batch(batch.iloc[i : i + 1])


APPLY = {"apply_batch": BingoStore.apply_batch, "per_event": per_event}


def row_of(dsts, biases):
    """The adjacency row of vertex 0 over ``dsts`` / ``biases``."""
    return Adjacency.from_edges(
        pd.DataFrame({"src": 0, "dst": dsts, "bias": biases})
    ).row(0)


def eq7_probs(v):
    """P(i) = Σ_k P(p_k)·P(i | p_k) (Eq. 7) over an integer vertex's own
    groups: P(p_k) = W(p_k)/ΣW (Eq. 5, which ``check_invariants`` holds
    the inter-group table to), then a uniform pick among the members."""
    p = np.zeros(v.degree)
    for key in [g.k for g in v._inter_groups]:
        g = v.group(key)
        members = (
            bits.group_members(v.int_parts(), key)
            if g.kind == KIND_DENSE
            else g.members_array()
        )
        p[members] += g.weight() / v.total_weight / len(members)
    return p


def batched_delete_layout(d, victims):
    """Delete ``victims`` from a degree-``d`` vertex with the batch path,
    check it against the streaming path, and return the row's dsts."""
    biases = rng(d).integers(1, 256, d)
    row, row_s = row_of(np.arange(d), biases), row_of(np.arange(d), biases)
    v_batch, v_stream = BingoVertex(row.bias), BingoVertex(biases)
    apply_vertex_batch(v_batch, [], victims, row)
    for dst in victims:
        v_stream.delete(row_s.delete(dst))
    v_batch.check_invariants()
    # Aligned with its row, and laid out as the streaming path.
    assert weights(v_batch) == row.bias.view().tolist() == weights(v_stream)
    assert row.dst.view().tolist() == row_s.dst.view().tolist()
    assert sorted(row.dst.view()) == sorted(set(range(d)) - set(victims))
    if v_batch.degree:
        w = row.bias.view()
        np.testing.assert_allclose(eq7_probs(v_batch), w / w.sum(), rtol=0, atol=1e-12)
    return row.dst.view().tolist()


class TestTwoPhasePlan:
    """The delete sets of Fig. 10(b)'s two-phase plan, run through the
    batched swap-delete: every vacated slot is refilled by a live tail
    entry, never by a doomed one, and the survivors stay dense."""

    def test_empty(self):
        assert batched_delete_layout(5, []) == [0, 1, 2, 3, 4]

    def test_all_front(self):
        # Both front slots take the tail entries 5 then 4.
        assert batched_delete_layout(6, [0, 1]) == [5, 4, 2, 3]

    def test_all_tail_gamma_equals_n(self):
        # Every doomed element is in the tail; the front never moves.
        assert batched_delete_layout(6, [4, 5]) == [0, 1, 2, 3]

    def test_paper_fig10b_mix(self):
        # Doomed front slot 0 must NOT end up holding doomed tail entry 9.
        assert batched_delete_layout(10, [0, 9, 5, 7]) == [8, 1, 2, 3, 4, 6]

    def test_delete_everything(self):
        assert batched_delete_layout(4, [0, 1, 2, 3]) == []


class TestBatchedVertexOps:
    def test_batched_delete_matches_streaming(self):
        victims = rng(3).choice(30, size=12, replace=False).tolist()
        batched_delete_layout(30, victims)

    def test_apply_vertex_batch_insert_then_delete(self):
        row = row_of([1, 2, 3], [4, 5, 6])
        v = BingoVertex(row.bias)
        apply_vertex_batch(v, [(7, 8), (9, 2)], [1, 3], row)
        v.check_invariants()
        assert sorted(row.dst.view()) == [2, 7, 9]
        assert weights(v) == row.bias.view().tolist()
        assert v.total_weight == 15

    def test_single_rebuild_distribution(self):
        g = rng(4)
        biases = g.integers(1, 64, 20)
        row = row_of(np.arange(20), biases)
        v = BingoVertex(row.bias)
        apply_vertex_batch(v, [(100, 32), (101, 7)], [0, 5, 19], row)
        v.check_invariants()
        assert weights(v) == row.bias.view().tolist()
        probs = row.bias.view() / row.bias.view().sum()
        assert_distribution(v.sample(rng(5), 60_000), probs)

    def test_float_vertex_batch(self):
        row = row_of([1, 2, 3], [0.5, 1.5, 2.5])
        v = BingoVertex(row.bias)
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
    """One whole-batch ``apply_batch`` == one ``apply_batch`` per event ==
    pandas ground truth, per §6.1 update workloads on a lite graph."""

    def test_paths_agree(self, mode):
        edges = graph_edges("AM").head(4000)
        plan = make_update_plan(edges, batch_size=100, n_batches=3, mode=mode, seed=5)
        st_e = BingoStore(plan.initial)
        st_b = BingoStore(plan.initial)
        for b in plan.batches:
            per_event(st_e, b)
            st_b.apply_batch(b)
        st_e.check_invariants()
        st_b.check_invariants()
        truth = apply_updates(plan.initial, plan.batches)
        for st in (st_e, st_b):
            got = st.edges()
            pd.testing.assert_frame_equal(
                got.astype({"src": np.int64, "dst": np.int64}),
                truth.astype({"src": np.int64, "dst": np.int64}),
                check_dtype=False,
            )


class TestFloatStore:
    """``BingoStore`` on float biases under updates (§4.3 λ scaling)."""

    EDGES = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 0], "bias": [0.5, 1.25, 0.3]})

    @pytest.mark.parametrize("path", list(APPLY))
    def test_new_source_takes_lambda_from_first_bias(self, path):
        st = BingoStore(self.EDGES)
        batch = pd.DataFrame(
            {"op": [1, 1], "src": [5, 5], "dst": [0, 1], "bias": [1e9, 2.5e8]}
        )
        APPLY[path](st, batch)
        st.check_invariants()
        pd.testing.assert_frame_equal(
            st.edges(), apply_updates(self.EDGES, [batch]), check_dtype=False
        )
        hops = st.sample_next(rng(1), np.full(40_000, 5))
        assert_distribution((hops == 1).astype(int), [0.8, 0.2])

    @pytest.mark.parametrize("src", [1, 9], ids=["existing", "new"])
    def test_overflow_leaves_batch_unapplied(self, src):
        # Vertex 1 splits at λ = 10; a new source at the λ = 100 that its
        # first bias, 0.05, picks. 1e18 fits int64 at λ = 1, not at either.
        st = BingoStore(self.EDGES)
        batch = pd.DataFrame(
            {"op": [1, 1], "src": [src, src], "dst": [7, 8], "bias": [0.05, 1e18]}
        )
        with pytest.raises(ValueError):
            st.apply_batch(batch)
        st.check_invariants()
        pd.testing.assert_frame_equal(st.edges(), self.EDGES, check_dtype=False)

    def test_reinsert_overflow_leaves_batch_unapplied(self):
        # Re-inserting vertex 3's only edge empties it, so its inserts split
        # at the λ = 1e9 that 1e-9 picks, where 1e11 overflows int64.
        edges = pd.DataFrame({"src": [3], "dst": [4], "bias": [1.0]})
        st = BingoStore(edges)
        batch = pd.DataFrame(
            {"op": [-1, 1, 1], "src": [3, 3, 3], "dst": [4, 4, 5], "bias": [0, 1e-9, 1e11]}
        )
        with pytest.raises(ValueError):
            st.apply_batch(batch)
        st.check_invariants()
        pd.testing.assert_frame_equal(st.edges(), edges, check_dtype=False)

    @pytest.mark.parametrize("path", list(APPLY))
    def test_overflowing_bias_rejected(self, path):
        st = BingoStore(self.EDGES)  # vertex 1 has λ = 10
        batch = pd.DataFrame({"op": [1], "src": [1], "dst": [7], "bias": [1e18]})
        with pytest.raises(ValueError):
            APPLY[path](st, batch)
        st.check_invariants()
        pd.testing.assert_frame_equal(st.edges(), self.EDGES, check_dtype=False)

    def test_lambda_readapts_after_batch(self):
        # λ = 1 on four whole biases; 50 inserts of 0.3 would leave the
        # decimal group 0.79 of the mass against the 1/d = 1/54 target.
        st = BingoStore(pd.DataFrame({"src": 0, "dst": [1, 2, 3, 4], "bias": 1.0}))
        old = st._v[0]
        st.apply_batch(pd.DataFrame(
            {"op": 1, "src": 0, "dst": np.arange(5, 55), "bias": 0.3}
        ))
        v = st._v[0]
        st.check_invariants()
        assert v is not old and v.lam == 10.0
        dec = v.group(-1)
        assert dec is None or dec.weight() * v.degree < v.total_weight
        assert v.conversions is old.conversions and v.touches is old.touches
        assert sum(v.conversions.values()) > 0
        hops = st.sample_next(rng(22), np.zeros(60_000, dtype=np.int64))
        assert_distribution((hops >= 5).astype(int), [4 / 19, 15 / 19])

    @pytest.mark.parametrize("initial, batch", [
        ({"dst": [1], "bias": [0.001]},
         {"op": [-1, 1], "dst": [1, 2], "bias": [0, 3.0]}),
        ({"dst": [1, 2], "bias": [0.001, 0.002]},
         {"op": [-1, -1, 1], "dst": [1, 2, 2], "bias": [0, 0, 3.0]}),
    ], ids=["deleted", "reinserted"])
    def test_lambda_rechosen_when_batch_replaces_every_edge(self, initial, batch):
        # 0.001 picks λ = 1000. The batch deletes or re-inserts every edge
        # vertex 0 had, leaving one bias of 3.0: at λ = 1000 it would span
        # the 7 groups of 3000's bits, at λ = 1 the groups 2^0 and 2^1.
        initial = pd.DataFrame({"src": 0, **initial})
        batch = pd.DataFrame({"src": 0, **batch})
        st = BingoStore(initial)
        old = st._v[0]
        assert old.lam == 1000.0
        st.apply_batch(batch)
        v = st._v[0]
        st.check_invariants()
        assert v.lam == 1.0 and sorted(v.group_kinds()) == [0, 1]
        assert v.conversions is old.conversions and v.touches is old.touches
        lam = pd.DataFrame({"src": [0], "lam": [v.lam]})
        assert_equivalent(group_frame([st]), GROUPS_SQL,
                          edges=apply_updates(initial, [batch]), lam=lam)

    def test_lambda_at_cap_not_rebuilt(self):
        # Biases of 1e-12 miss the 1/d target at every λ, so λ sits at the
        # 1e9 cap with all mass decimal; a batch of more keeps the vertex.
        st = BingoStore(pd.DataFrame({"src": 0, "dst": [1, 2, 3, 4], "bias": 1e-12}))
        old = st._v[0]
        assert old.lam == 1e9
        st.apply_batch(pd.DataFrame(
            {"op": 1, "src": 0, "dst": np.arange(5, 10), "bias": 2e-12}
        ))
        assert st._v[0] is old and old.lam == 1e9
        st.check_invariants()
