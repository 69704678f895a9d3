"""Radix decomposition (Eq. 3-4) and floating-point λ machinery (§4.3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bits


class TestDecompose:
    """D(w) = {2^k : k in bit_positions(w)} (Eq. 3)."""

    def test_paper_example_bias_5(self):
        # Running example (Fig. 4): w=5 decomposes into {1, 4}.
        assert bits.bit_positions(5) == [0, 2]

    def test_paper_example_bias_3(self):
        # Insertion example (Fig. 5): 3 = 2^0 + 2^1.
        assert bits.bit_positions(3) == [0, 1]

    def test_zero_has_empty_decomposition(self):
        assert bits.bit_positions(0) == []

    def test_power_of_two_is_single_term(self):
        assert bits.bit_positions(64) == [6]

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_sums_back(self, w):
        assert sum(1 << k for k in bits.bit_positions(w)) == w

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_bit_positions_consistent(self, w):
        # Edge w joins group p_k exactly when group_members puts it there.
        K = bits.num_bits(w)
        joined = [k for k in range(K) if len(bits.group_members([w], k))]
        assert bits.bit_positions(w) == joined


class TestGroupWeights:
    def test_paper_running_example(self):
        # Vertex 2 with biases {5, 4, 3}: groups 2^0={1,5}, 2^1={5},
        # 2^2={1,4} with weights 2, 2, 8 (Fig. 4).
        W = bits.group_weights([5, 4, 3])
        np.testing.assert_array_equal(W, [2, 2, 8])

    def test_weights_sum_to_total_bias(self):
        b = np.array([5, 4, 3, 17, 100])
        assert bits.group_weights(b).sum() == b.sum()

    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_weights_sum_property(self, biases):
        # Σ_k W(p_k) == Σ_i w_i — the normalizer identity behind Eq. 8.
        assert bits.group_weights(biases).sum() == sum(biases)

    def test_group_members_match_bit_test(self):
        b = np.array([5, 4, 3])
        np.testing.assert_array_equal(bits.group_members(b, 0), [0, 2])
        np.testing.assert_array_equal(bits.group_members(b, 1), [2])
        np.testing.assert_array_equal(bits.group_members(b, 2), [0, 1])

    def test_explicit_K_pads_zero_groups(self):
        W = bits.group_weights([1], K=8)
        assert len(W) == 8 and W[0] == 1 and W[1:].sum() == 0

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            bits.group_weights([-3])


class TestPopcount:
    """t = popc(w), the number of groups edge w joins (§4.4)."""

    def test_known_values(self):
        assert [len(bits.bit_positions(x)) for x in [0, 1, 3, 255]] == [0, 1, 2, 8]

    @given(st.lists(st.integers(min_value=0, max_value=2**50), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_bit_count(self, xs):
        assert [len(bits.bit_positions(x)) for x in xs] == [x.bit_count() for x in xs]

    def test_num_bits(self):
        assert bits.num_bits(0) == 1
        assert bits.num_bits(1) == 1
        assert bits.num_bits(5) == 3
        assert bits.num_bits(256) == 9


class TestFloatSplit:
    def test_paper_example_lambda_10(self):
        # Fig. 7: biases (0.554, 0.726, 0.320) * 10 -> int parts (5, 7, 3).
        ints, fracs = bits.float_split([0.554, 0.726, 0.320], 10.0)
        np.testing.assert_array_equal(ints, [5, 7, 3])
        np.testing.assert_allclose(fracs, [0.54, 0.26, 0.20], atol=1e-9)

    def test_split_reconstructs_scaled_bias(self):
        b = np.array([0.1, 2.5, 3.75])
        ints, fracs = bits.float_split(b, 4.0)
        np.testing.assert_allclose(ints + fracs, b * 4.0)

    def test_paper_decimal_mass_example(self):
        # §4.4: λ=10 gives W_D/(W_I+W_D) = 1/16 for the Fig. 7 vertex.
        r = bits.decimal_mass_ratio([0.554, 0.726, 0.320], 10.0)
        assert r == pytest.approx(1.0 / 16.0)

    def test_choose_lambda_meets_target(self):
        b = np.random.default_rng(1).random(50) * 3
        lam = bits.choose_lambda(b)
        assert bits.decimal_mass_ratio(b, lam) < 1.0 / len(b)

    def test_choose_lambda_whole_numbers_take_one(self):
        # The integer scheme is the float scheme at λ = 1.
        assert bits.choose_lambda([5, 4, 3]) == 1.0
        assert bits.choose_lambda([2.0, 7.0]) == 1.0
        assert bits.choose_lambda([]) == 1.0

    def test_choose_lambda_grows_geometrically(self):
        # All-fractional biases need λ > 1.
        assert bits.choose_lambda([0.01, 0.02, 0.03]) >= 10.0

    def test_choose_lambda_stops_at_cap(self):
        # No λ up to 1e9 brings W_D/(W_I+W_D) below 1/d: the cap is returned.
        assert bits.choose_lambda([1e-12, 3e-12]) == 1e9

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_choose_lambda_property(self, biases):
        lam = bits.choose_lambda(biases)
        assert bits.decimal_mass_ratio(biases, lam) < 1.0 / len(biases)
