"""BingoVertex: hierarchical sampling (Theorem 4.1), streaming updates
(§4.2), floating-point biases (§4.3), adaptive representations (§5.1).

A ``BingoVertex`` works on adjacency indices; the destination-level
checks (duplicates, missing edges, index → destination) run on the
``BingoStore`` and ``Adjacency`` that own the destination ids."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DECIMAL_KEY, BingoStore, BingoVertex
from repro.core.groups import KIND_DENSE, KIND_ONE, KIND_REGULAR, KIND_SPARSE
from repro.graphs.dynamic_graph import Adjacency
from tests.util import assert_distribution, rng, weights


def edges_df(rows):
    return pd.DataFrame(rows, columns=["src", "dst", "bias"])


def events(rows):
    return pd.DataFrame(rows, columns=["op", "src", "dst", "bias"])


class TestConstruction:
    def test_running_example_groups(self):
        # Fig. 4: biases {5,4,3} -> group 2^0={0,2}, 2^1={2}, 2^2={0,1}
        # with weights 2, 2, 8.
        v = BingoVertex([5, 4, 3], adaptive=False)
        assert v.group(0).weight() == 2
        assert v.group(1).weight() == 2
        assert v.group(2).weight() == 8
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 2])
        np.testing.assert_array_equal(v.group(1).members_array(), [2])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])

    def test_total_weight_preserved(self):
        v = BingoVertex([5, 4, 3])
        assert v.total_weight == 12

    def test_empty_vertex(self):
        v = BingoVertex([])
        assert v.degree == 0
        with pytest.raises(ValueError):
            v.sample(rng(0), 1)

    def test_duplicate_neighbor_rejected(self):
        dup = edges_df([(0, 1, 2), (0, 1, 3)])
        with pytest.raises(ValueError):
            Adjacency.from_edges(dup)
        with pytest.raises(ValueError):
            BingoStore(dup)

    def test_nonpositive_bias_rejected(self):
        with pytest.raises(ValueError):
            BingoVertex([1, 0])
        with pytest.raises(ValueError):
            BingoVertex([1, np.nan])
        v = BingoVertex([1])
        with pytest.raises(ValueError):
            v.insert(np.nan)
        assert v.degree == 1

    def test_noninteger_bias_accepted(self):
        # Decimal mass 0.5/3.5 is already below 1/d at λ = 1.
        v = BingoVertex([1, 2.5])
        assert v.lam == 1.0
        v.check_invariants()
        assert weights(v) == [1.0, 2.5]
        assert_distribution(v.sample(rng(3), 40_000), [1 / 3.5, 2.5 / 3.5])

    def test_nonadaptive_groups_all_regular(self):
        v = BingoVertex([5, 4, 3, 9, 16, 1], adaptive=False)
        assert set(v.group_kinds().values()) == {KIND_REGULAR}


class TestTheorem41:
    """Theorem 4.1: radix factorization preserves Eq. 2 exactly."""

    def test_eq7_exact_enumeration(self):
        biases = np.array([5, 4, 3, 7, 12, 1, 64])
        v = BingoVertex(biases, adaptive=False)
        total = biases.sum()
        for i, w in enumerate(biases):
            # P(v_i) = sum_k P(p_k) * P(v_i | p_k)  (Eq. 7)
            p = 0.0
            for k, g in v._groups.items():
                if w & (1 << k):
                    p += (g.weight() / total) * ((1 << k) / g.weight())
            assert p == pytest.approx(w / total)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["BS", "GA"])
    def test_sampling_distribution(self, adaptive):
        biases = np.array([5, 4, 3, 7, 12, 1, 64, 33, 2, 2])
        v = BingoVertex(biases, adaptive=adaptive)
        draws = v.sample(rng(1), 80_000)
        assert_distribution(draws, biases / biases.sum())

    def test_sample_dst_maps_to_neighbor_ids(self):
        st = BingoStore(edges_df([(0, 7, 1), (0, 9, 3)]))
        dsts = st.sample_next(rng(2), np.zeros(1000, dtype=np.int64))
        assert set(np.unique(dsts)) <= {7, 9}
        assert_distribution((dsts == 9).astype(int), [0.25, 0.75])


class TestStreamingInsert:
    def test_paper_insert_example(self):
        # Fig. 5: insert (2,3,3) into vertex 2 -> joins groups 2^0 and 2^1.
        v = BingoVertex([5, 4, 3], adaptive=False)
        assert v.insert(3) == 3
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 2, 3])
        np.testing.assert_array_equal(v.group(1).members_array(), [2, 3])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])
        assert v.total_weight == 15
        v.check_invariants()

    def test_insert_extends_K(self):
        v = BingoVertex([1, 2])
        v.insert(64)
        assert v.group(6) is not None
        v.check_invariants()

    def test_insert_duplicate_rejected(self):
        st = BingoStore(edges_df([(0, 5, 1)]))
        with pytest.raises(KeyError):
            st.apply_batch(events([(1, 0, 5, 2)]))
        with pytest.raises(KeyError):
            st.adj.row(0).append(5, 2.0)
        st.check_invariants()
        pd.testing.assert_frame_equal(st.edges(), edges_df([(0, 5, 1)]), check_dtype=False)

    def test_insert_distribution(self):
        v = BingoVertex([5, 4, 3])
        v.insert(8)
        draws = v.sample(rng(3), 60_000)
        full = np.array([5, 4, 3, 8])
        assert_distribution(draws, full / full.sum())

    @pytest.mark.parametrize("bias", [1, 4], ids=["weight", "key"])
    def test_unfinalized_insert_fails_invariants(self, bias):
        # Group 2^0 gains a member (or group 2^2 appears), but the
        # inter-group table still draws the old groups with their old
        # weights: check_invariants must see that. Regular groups keep
        # every other check passing.
        v = BingoVertex([1, 2], adaptive=False)
        v._b.append(bias)
        v._insert_edge()
        with pytest.raises(AssertionError, match="inter-group|Not equal"):
            v.check_invariants()
        v._finalize_update()
        v.check_invariants()

    def test_insert_into_empty(self):
        v = BingoVertex([])
        v.insert(6)
        assert v.degree == 1
        assert (v.sample(rng(4), 10) == 0).all()
        v.check_invariants()


class TestStreamingDelete:
    def test_paper_delete_example(self):
        # Fig. 6: delete (2,1,5); edge index 0 leaves groups 2^0 and 2^2.
        adj = Adjacency.from_edges(edges_df([(2, 1, 5), (2, 4, 4), (2, 5, 3)]))
        assert adj.row(2).delete(1) == 0
        assert not adj.has_edge(2, 1)
        v = BingoVertex([5, 4, 3], adaptive=False)
        v.delete(0)
        assert v.degree == 2
        # After swap, former index 2 (dst 5, bias 3) is renamed to 0 on
        # both sides.
        np.testing.assert_array_equal(adj.rows[2].dst.view(), [5, 4])
        assert weights(v) == [3, 4]
        v.check_invariants()
        assert v.total_weight == 7

    def test_delete_missing_raises(self):
        st = BingoStore(edges_df([(0, 1, 5)]))
        with pytest.raises(KeyError):
            st.apply_batch(events([(-1, 0, 2, 0)]))
        st.check_invariants()
        pd.testing.assert_frame_equal(
            st.edges(), edges_df([(0, 1, 5)]), check_dtype=False
        )
        with pytest.raises(IndexError):
            BingoVertex([5]).delete(1)

    def test_delete_tail_no_swap(self):
        v = BingoVertex([5, 4, 3])
        v.delete(2)  # tail index
        assert v.degree == 2
        assert weights(v) == [5, 4]
        v.check_invariants()

    def test_delete_to_empty(self):
        v = BingoVertex([3, 5])
        v.delete(0)
        v.delete(0)
        assert v.degree == 0
        assert v.total_weight == 0

    def test_delete_distribution(self):
        v = BingoVertex([5, 4, 3, 9])
        v.delete(1)  # the tail (9) is renamed to index 1
        full = np.array([5, 9, 3])
        assert_distribution(v.sample(rng(5), 60_000), full / full.sum())

    def test_update_bias(self):
        # A bias update is a delete followed by an insert (§4.2).
        v = BingoVertex([3, 5])
        v.delete(1)
        v.insert(9)
        assert v.total_weight == 12
        v.check_invariants()


class TestRandomOpSequences:
    @pytest.mark.parametrize("adaptive", [False, True], ids=["BS", "GA"])
    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_after_random_ops(self, adaptive, seed):
        g = rng(seed + 100)
        ref = []  # bias at each index, with the same swap-with-tail deletes
        v = BingoVertex([], adaptive=adaptive)
        for _ in range(120):
            if ref and g.random() < 0.45:
                i = int(g.integers(0, len(ref)))
                ref[i] = ref[-1]
                ref.pop()
                v.delete(i)
            else:
                b = int(g.integers(1, 128))
                ref.append(b)
                assert v.insert(b) == len(ref) - 1
            v.check_invariants()
            assert weights(v) == ref
            assert v.total_weight == sum(ref)
        if ref:
            probs = np.array(ref, dtype=np.float64)
            assert_distribution(v.sample(rng(seed + 200), 40_000), probs / probs.sum())

    @given(st.lists(st.integers(min_value=1, max_value=2**12), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_build_invariants_hypothesis(self, biases):
        v = BingoVertex(biases)
        v.check_invariants()
        assert v.total_weight == sum(biases)


class TestFloatBias:
    def test_paper_fig7_structure(self):
        # Fig. 7: λ=10 over (0.554, 0.726, 0.320) -> int groups 2^0={0,1},
        # 2^1={1,2}, 2^2={1,0 from 5.54,7.26}.. verify weights via Eq. 4.
        v = BingoVertex([0.554, 0.726, 0.320], adaptive=False)
        assert v.lam == 10.0  # chosen: decimal mass 1/16 < 1/3 (§4.4)
        np.testing.assert_array_equal(v.int_parts(), [5, 7, 3])
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 1, 2])
        np.testing.assert_array_equal(v.group(1).members_array(), [1, 2])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])
        dec = v.group(DECIMAL_KEY)
        assert dec.weight() == pytest.approx(1.0)  # 0.54 + 0.26 + 0.20
        v.check_invariants()

    def test_float_distribution(self):
        raw = np.array([0.554, 0.726, 0.320])
        v = BingoVertex(raw)
        draws = v.sample(rng(6), 80_000)
        assert_distribution(draws, raw / raw.sum())

    def test_auto_lambda_keeps_decimal_mass_low(self):
        raw = np.random.default_rng(7).random(30) * 2 + 0.01
        v = BingoVertex(raw)
        dec = v.group(DECIMAL_KEY)
        dec_w = 0.0 if dec is None else dec.weight()
        assert dec_w / v.total_weight < 1.0 / v.degree

    def test_float_stream_ops(self):
        g = rng(8)
        ref = []
        v = BingoVertex([])
        for _ in range(60):
            if ref and g.random() < 0.4:
                i = int(g.integers(0, len(ref)))
                ref[i] = ref[-1]
                ref.pop()
                v.delete(i)
            else:
                b = float(g.random() * 3 + 0.05)
                ref.append(b)
                v.insert(b)
            v.check_invariants()
            np.testing.assert_allclose(weights(v), np.array(ref) * v.lam, rtol=1e-12)
        if ref:
            probs = np.array(ref)
            assert_distribution(v.sample(rng(9), 60_000), probs / probs.sum())

    def test_integer_vertex_accepts_float_bias(self):
        v = BingoVertex([2])
        v.insert(1.5)  # a non-empty vertex keeps λ = 1
        assert v.lam == 1.0
        v.check_invariants()
        assert weights(v) == [2.0, 1.5]
        assert_distribution(v.sample(rng(4), 40_000), [2 / 3.5, 1.5 / 3.5])

    def test_empty_vertex_takes_lambda_from_first_bias(self):
        v = BingoVertex([4])
        v.delete(0)
        v.insert(0.05)  # an emptied integer vertex re-chooses λ too
        assert v.lam == 100.0
        v.delete(0)
        v.insert(1e9)  # at λ = 1e10 this overflowed int64
        assert v.lam == 1.0
        v.insert(0.25)
        v.check_invariants()
        v.delete(0)
        v.delete(0)
        v.insert(0.05)  # emptied again: λ is re-chosen
        assert v.lam == 100.0

    @pytest.mark.parametrize(
        "initial, lam, too_big",
        [([2], 1.0, 2.0**63), ([0.2], 10.0, 1e18)],  # 1e18 fits int64 unscaled, not at λ = 10
        ids=["int", "float"],
    )
    def test_int64_overflow_rejected(self, initial, lam, too_big):
        v = BingoVertex(initial)
        assert v.lam == lam
        with pytest.raises(ValueError):
            v.insert(too_big)
        v.check_invariants()
        assert v.degree == 1
        with pytest.raises(ValueError):
            BingoVertex([2.0**63])

    def test_failed_insert_keeps_no_bias(self):
        # The bias is appended before its λ-split is checked; a split
        # that overflows int64 takes the append back.
        v = BingoVertex([1.5e-9, 2.5e-9])
        assert v.lam == 1e9
        before = weights(v)
        with pytest.raises(ValueError, match="overflows int64"):
            v.insert(1e11)  # 1e20 at λ = 1e9
        assert v.degree == 2 and weights(v) == before
        v.check_invariants()
        assert v.insert(3.5e-9) == 2
        v.check_invariants()


class TestIntegerBiasExactness:
    """float64 holds every integer up to 2**53 exactly; a larger integer
    bias it would round raises before the row or the sampler changes."""

    BIG = 2**53 + 1

    def test_vertex_rejects_rounded_bias(self):
        with pytest.raises(ValueError):
            BingoVertex([1, self.BIG])
        with pytest.raises(ValueError):
            BingoVertex(np.array([1, self.BIG], dtype=np.int64))
        v = BingoVertex([3, 1])
        with pytest.raises(ValueError):
            v.insert(np.int64(self.BIG))
        assert weights(v) == [3, 1]
        v.check_invariants()

    def test_store_build_rejects_rounded_bias(self):
        with pytest.raises(ValueError):
            BingoStore(edges_df([(0, 1, 1), (0, 2, self.BIG)]))

    def test_batch_insert_rejects_rounded_bias(self):
        st = BingoStore(edges_df([(0, 1, 3)]))
        with pytest.raises(ValueError):
            st.apply_batch(events([(1, 0, 2, self.BIG)]))
        with pytest.raises(ValueError):
            st.apply_batch(events([(1, 4, 2, self.BIG)]))  # a new source
        st.check_invariants()
        pd.testing.assert_frame_equal(
            st.edges(), edges_df([(0, 1, 3)]), check_dtype=False
        )

    def test_two_to_the_53_accepted(self):
        v = BingoVertex([2**53])
        assert weights(v) == [2**53]
        st = BingoStore(edges_df([(0, 1, 2**53)]))
        st.apply_batch(events([(1, 0, 2, 2**53)]))
        st.check_invariants()
        assert st.edges().bias.tolist() == [2**53, 2**53]


class TestAdaptiveRepresentation:
    def test_fig8_like_classification(self):
        # 8 neighbors; bit 0 set for 5/8 (62.5% -> dense), a unique top
        # bit (one-element), and a small high-bit population (sparse-ish).
        biases = [1, 3, 5, 7, 9, 2, 4, 16]
        v = BingoVertex(biases)
        kinds = v.group_kinds()
        assert kinds[0] == KIND_DENSE       # 5/8 = 62.5%
        assert kinds[4] == KIND_ONE          # only bias 16
        v.check_invariants()

    def test_sparse_classification(self):
        # degree 30, exactly 2 members with bit 5 -> 6.7% < beta.
        biases = [1] * 28 + [33, 32]
        v = BingoVertex(biases)
        assert v.group_kinds()[5] == KIND_SPARSE

    def test_conversion_counters_populate(self):
        v = BingoVertex([3] * 10)
        for _ in range(20):
            v.insert(16)
        conv = +v.conversions
        assert sum(conv.values()) > 0

    def test_adaptive_memory_below_baseline(self):
        # Fig. 11's claim at vertex granularity: GA <= BS memory.
        g = rng(10)
        biases = g.integers(1, 2**10, 400)
        bs = BingoVertex(biases, adaptive=False)
        ga = BingoVertex(biases, adaptive=True)
        assert ga.nbytes < bs.nbytes

    def test_adaptive_distribution_matches(self):
        g = rng(11)
        biases = g.integers(1, 512, 64)
        ga = BingoVertex(biases, adaptive=True)
        draws = ga.sample(rng(12), 80_000)
        assert_distribution(draws, biases / biases.sum())
