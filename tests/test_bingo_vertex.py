"""BingoVertex: hierarchical sampling (Theorem 4.1), streaming updates
(§4.2), floating-point biases (§4.3), adaptive representations (§5.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DECIMAL_KEY, BingoVertex
from repro.core.groups import KIND_DENSE, KIND_ONE, KIND_REGULAR, KIND_SPARSE
from tests.util import assert_distribution, rng


def make_vertex(biases, **kw):
    return BingoVertex(np.arange(len(biases)) + 100, biases, **kw)


class TestConstruction:
    def test_running_example_groups(self):
        # Fig. 4: biases {5,4,3} -> group 2^0={0,2}, 2^1={2}, 2^2={0,1}
        # with weights 2, 2, 8.
        v = make_vertex([5, 4, 3], adaptive=False)
        assert v.group(0).weight() == 2
        assert v.group(1).weight() == 2
        assert v.group(2).weight() == 8
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 2])
        np.testing.assert_array_equal(v.group(1).members_array(), [2])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])

    def test_total_weight_preserved(self):
        v = make_vertex([5, 4, 3])
        assert v.total_weight == 12

    def test_empty_vertex(self):
        v = BingoVertex([], [])
        assert v.degree == 0
        with pytest.raises(ValueError):
            v.sample(rng(0), 1)

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(ValueError):
            BingoVertex([1, 1], [2, 3])

    def test_nonpositive_bias_rejected(self):
        with pytest.raises(ValueError):
            make_vertex([1, 0])

    def test_nonadaptive_groups_all_regular(self):
        v = make_vertex([5, 4, 3, 9, 16, 1], adaptive=False)
        assert set(v.group_kinds().values()) == {KIND_REGULAR}


class TestTheorem41:
    """Theorem 4.1: radix factorization preserves Eq. 2 exactly."""

    def test_eq7_exact_enumeration(self):
        biases = np.array([5, 4, 3, 7, 12, 1, 64])
        v = make_vertex(biases, adaptive=False)
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
        v = make_vertex(biases, adaptive=adaptive)
        draws = v.sample(rng(1), 80_000)
        assert_distribution(draws, biases / biases.sum())

    def test_sample_dst_maps_to_neighbor_ids(self):
        v = BingoVertex([7, 9], [1, 3])
        dsts = v.sample_dst(rng(2), 1000)
        assert set(np.unique(dsts)) <= {7, 9}


class TestStreamingInsert:
    def test_paper_insert_example(self):
        # Fig. 5: insert (2,3,3) into vertex 2 -> joins groups 2^0 and 2^1.
        v = BingoVertex([1, 4, 5], [5, 4, 3], adaptive=False)
        v.insert(3, 3)
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 2, 3])
        np.testing.assert_array_equal(v.group(1).members_array(), [2, 3])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])
        assert v.total_weight == 15
        v.check_invariants()

    def test_insert_extends_K(self):
        v = make_vertex([1, 2])
        v.insert(999, 64)
        assert v.group(6) is not None
        v.check_invariants()

    def test_insert_duplicate_rejected(self):
        v = BingoVertex([5], [1])
        with pytest.raises(KeyError):
            v.insert(5, 2)

    def test_insert_distribution(self):
        v = make_vertex([5, 4, 3])
        v.insert(50, 8)
        draws = v.sample(rng(3), 60_000)
        full = np.array([5, 4, 3, 8])
        assert_distribution(draws, full / full.sum())

    def test_insert_into_empty(self):
        v = BingoVertex([], [])
        v.insert(1, 6)
        assert v.degree == 1
        assert (v.sample(rng(4), 10) == 0).all()
        v.check_invariants()


class TestStreamingDelete:
    def test_paper_delete_example(self):
        # Fig. 6: delete (2,1,5); edge index 0 leaves groups 2^0 and 2^2.
        v = BingoVertex([1, 4, 5], [5, 4, 3], adaptive=False)
        v.delete(1)
        assert v.degree == 2
        assert not v.has_edge(1)
        # After swap, former index 2 (dst 5, bias 3) is renamed to 0.
        assert v.index_of(5) == 0
        assert v.index_of(4) == 1
        v.check_invariants()
        assert v.total_weight == 7

    def test_delete_missing_raises(self):
        v = BingoVertex([1], [5])
        with pytest.raises(KeyError):
            v.delete(2)

    def test_delete_tail_no_swap(self):
        v = BingoVertex([1, 4, 5], [5, 4, 3])
        v.delete(5)  # tail index
        assert v.degree == 2
        v.check_invariants()

    def test_delete_to_empty(self):
        v = BingoVertex([1, 2], [3, 5])
        v.delete(1)
        v.delete(2)
        assert v.degree == 0
        assert v.total_weight == 0

    def test_delete_distribution(self):
        v = BingoVertex([10, 11, 12, 13], [5, 4, 3, 9])
        v.delete(11)
        draws = v.sample_dst(rng(5), 60_000)
        remap = {10: 0, 12: 1, 13: 2}
        mapped = np.array([remap[int(x)] for x in draws])
        full = np.array([5, 3, 9])
        assert_distribution(mapped, full / full.sum())

    def test_update_bias(self):
        # A bias update is a delete followed by an insert (§4.2).
        v = BingoVertex([1, 2], [3, 5])
        v.delete(2)
        v.insert(2, 9)
        assert v.total_weight == 12
        v.check_invariants()


class TestRandomOpSequences:
    @pytest.mark.parametrize("adaptive", [False, True], ids=["BS", "GA"])
    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_after_random_ops(self, adaptive, seed):
        g = rng(seed + 100)
        ref = {}  # dst -> bias
        v = BingoVertex([], [], adaptive=adaptive)
        next_dst = 0
        for _ in range(120):
            if ref and g.random() < 0.45:
                dst = int(g.choice(sorted(ref)))
                del ref[dst]
                v.delete(dst)
            else:
                b = int(g.integers(1, 128))
                ref[next_dst] = b
                v.insert(next_dst, b)
                next_dst += 1
            v.check_invariants()
            assert v.degree == len(ref)
            assert v.total_weight == sum(ref.values())
        if ref:
            dsts = sorted(ref)
            probs = np.array([ref[d] for d in dsts], dtype=np.float64)
            draws = v.sample_dst(rng(seed + 200), 40_000)
            remap = {d: i for i, d in enumerate(dsts)}
            mapped = np.array([remap[int(x)] for x in draws])
            assert_distribution(mapped, probs / probs.sum())

    @given(st.lists(st.integers(min_value=1, max_value=2**12), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_build_invariants_hypothesis(self, biases):
        v = make_vertex(biases)
        v.check_invariants()
        assert v.total_weight == sum(biases)


class TestFloatBias:
    def test_paper_fig7_structure(self):
        # Fig. 7: λ=10 over (0.554, 0.726, 0.320) -> int groups 2^0={0,1},
        # 2^1={1,2}, 2^2={1,0 from 5.54,7.26}.. verify weights via Eq. 4.
        v = BingoVertex([1, 4, 5], [0.554, 0.726, 0.320],
                        float_bias=True, lam=10.0, adaptive=False)
        # int parts: 5, 7, 3
        np.testing.assert_array_equal(v.int_bias_view(), [5, 7, 3])
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 1, 2])
        np.testing.assert_array_equal(v.group(1).members_array(), [1, 2])
        np.testing.assert_array_equal(v.group(2).members_array(), [0, 1])
        dec = v.group(DECIMAL_KEY)
        assert dec.weight() == pytest.approx(1.0)  # 0.54 + 0.26 + 0.20
        v.check_invariants()

    def test_float_distribution(self):
        raw = np.array([0.554, 0.726, 0.320])
        v = BingoVertex([1, 4, 5], raw, float_bias=True, lam=10.0)
        draws = v.sample(rng(6), 80_000)
        assert_distribution(draws, raw / raw.sum())

    def test_auto_lambda_keeps_decimal_mass_low(self):
        raw = np.random.default_rng(7).random(30) * 2 + 0.01
        v = make_vertex(raw, float_bias=True)
        dec = v.group(DECIMAL_KEY)
        dec_w = 0.0 if dec is None else dec.weight()
        assert dec_w / v.total_weight < 1.0 / v.degree

    def test_float_stream_ops(self):
        g = rng(8)
        ref = {}
        v = BingoVertex([], [], float_bias=True, lam=100.0)
        for i in range(60):
            if ref and g.random() < 0.4:
                dst = int(g.choice(sorted(ref)))
                del ref[dst]
                v.delete(dst)
            else:
                b = float(g.random() * 3 + 0.05)
                ref[i + 1000] = b
                v.insert(i + 1000, b)
            v.check_invariants()
        if ref:
            dsts = sorted(ref)
            probs = np.array([ref[d] for d in dsts])
            draws = v.sample_dst(rng(9), 60_000)
            remap = {d: i for i, d in enumerate(dsts)}
            mapped = np.array([remap[int(x)] for x in draws])
            assert_distribution(mapped, probs / probs.sum())

    def test_integer_vertex_rejects_float_bias(self):
        v = BingoVertex([1], [2])
        with pytest.raises(ValueError):
            v.insert(2, 1.5)


class TestAdaptiveRepresentation:
    def test_fig8_like_classification(self):
        # 8 neighbors; bit 0 set for 5/8 (62.5% -> dense), a unique top
        # bit (one-element), and a small high-bit population (sparse-ish).
        biases = [1, 3, 5, 7, 9, 2, 4, 16]
        v = make_vertex(biases)
        kinds = v.group_kinds()
        assert kinds[0] == KIND_DENSE       # 5/8 = 62.5%
        assert kinds[4] == KIND_ONE          # only bias 16
        v.check_invariants()

    def test_sparse_classification(self):
        # degree 30, exactly 2 members with bit 5 -> 6.7% < beta.
        biases = [1] * 28 + [33, 32]
        v = make_vertex(biases)
        assert v.group_kinds()[5] == KIND_SPARSE

    def test_conversion_counters_populate(self):
        v = make_vertex([3] * 10)
        for i in range(20):
            v.insert(1000 + i, 16)
        conv = +v.conversions
        assert sum(conv.values()) > 0

    def test_adaptive_memory_below_baseline(self):
        # Fig. 11's claim at vertex granularity: GA <= BS memory.
        g = rng(10)
        biases = g.integers(1, 2**10, 400)
        bs = make_vertex(biases, adaptive=False)
        ga = make_vertex(biases, adaptive=True)
        assert ga.structure_nbytes < bs.structure_nbytes

    def test_adaptive_distribution_matches(self):
        g = rng(11)
        biases = g.integers(1, 512, 64)
        ga = make_vertex(biases, adaptive=True)
        draws = ga.sample(rng(12), 80_000)
        assert_distribution(draws, biases / biases.sum())
