"""Adaptive group representations (paper §5.1, Eq. 9)."""
import numpy as np
import pytest

from repro.core import DECIMAL_KEY, BingoVertex
from repro.core.groups import (
    KIND_DECIMAL,
    KIND_DENSE,
    KIND_ONE,
    KIND_REGULAR,
    KIND_SPARSE,
    DenseGroup,
    OneElementGroup,
    RegularGroup,
    SparseGroup,
    classify,
    make_group,
)
from tests.util import assert_distribution, rng


class TestClassify:
    def test_dense_above_alpha(self):
        assert classify(41, 100) == KIND_DENSE

    def test_dense_wins_over_one_element(self):
        # Eq. 9 is applied in listed order: a 1-element group of a
        # degree-2 vertex is 50% > alpha -> dense.
        assert classify(1, 2) == KIND_DENSE

    def test_one_element(self):
        assert classify(1, 100) == KIND_ONE

    def test_sparse_below_beta(self):
        assert classify(5, 100) == KIND_SPARSE

    def test_regular_between(self):
        assert classify(25, 100) == KIND_REGULAR

    def test_boundaries_are_strict(self):
        assert classify(40, 100) == KIND_REGULAR  # ratio == alpha is not dense
        assert classify(10, 100) == KIND_REGULAR  # ratio == beta is not sparse

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify(0, 10)
        with pytest.raises(ValueError):
            classify(1, 0)


@pytest.mark.parametrize("cls,kind", [(RegularGroup, KIND_REGULAR), (SparseGroup, KIND_SPARSE)])
class TestIndexedGroups:
    """Regular and sparse groups share the inverted-index contract."""

    def test_build_and_weight(self, cls, kind):
        g = cls(2, [0, 3, 5], degree_hint=8)
        assert g.kind == kind
        assert g.size == 3
        assert g.weight() == 3 * 4  # 3 members x 2^2
        np.testing.assert_array_equal(g.members_array(), [0, 3, 5])

    def test_insert(self, cls, kind):
        g = cls(0, [1], degree_hint=4)
        g.insert(7)
        assert g.size == 2
        np.testing.assert_array_equal(g.members_array(), [1, 7])

    def test_delete_middle_keeps_compact(self, cls, kind):
        g = cls(1, [0, 3, 5], degree_hint=8)
        g.delete(3)
        assert g.size == 2
        np.testing.assert_array_equal(g.members_array(), [0, 5])

    def test_delete_missing_raises(self, cls, kind):
        g = cls(1, [0, 3], degree_hint=8)
        with pytest.raises(KeyError):
            g.delete(9)

    def test_replace_index(self, cls, kind):
        g = cls(1, [0, 3, 5], degree_hint=8)
        g.replace_index(5, 2)
        np.testing.assert_array_equal(g.members_array(), [0, 2, 3])

    def test_replace_missing_raises(self, cls, kind):
        g = cls(1, [0], degree_hint=4)
        with pytest.raises(KeyError):
            g.replace_index(9, 1)

    def test_sample_uniform_over_members(self, cls, kind):
        # Group 2^3 = {2, 4, 9}: 3 of 16 is regular, 3 of 40 sparse. Eq. 2
        # holds only if the vertex draws its members uniformly.
        b = np.ones(16 if kind == KIND_REGULAR else 40)
        b[[2, 4, 9]] += 8
        v = BingoVertex(b)
        assert v.group(3).kind == kind
        assert_distribution(v.sample(rng(1), 30_000), b / b.sum())

    def test_random_op_sequence_consistency(self, cls, kind):
        g = cls(0, [0, 1, 2], degree_hint=64)
        ref = {0, 1, 2}
        gen = rng(2)
        nxt = 3
        for _ in range(200):
            if ref and gen.random() < 0.5:
                victim = int(gen.choice(sorted(ref)))
                g.delete(victim)
                ref.discard(victim)
            else:
                g.insert(nxt)
                ref.add(nxt)
                nxt += 1
            assert g.size == len(ref)
            if ref:
                np.testing.assert_array_equal(g.members_array(), sorted(ref))


class TestOneElementGroup:
    def test_requires_exactly_one(self):
        with pytest.raises(ValueError):
            OneElementGroup(0, [1, 2])

    def test_sample_constant(self):
        b = np.ones(8)
        b[7] += 16  # group 2^4 = {7}
        v = BingoVertex(b)
        assert v.group(4).kind == KIND_ONE and v.group(4).weight() == 16
        assert_distribution(v.sample(rng(3), 30_000), b / b.sum())

    def test_insert_forces_conversion(self):
        # A one-element group cannot grow: the vertex re-creates it.
        v = BingoVertex([1, 2, 2, 2])  # group 2^0 = {0} at d = 4
        assert v.group(0).kind == KIND_ONE
        v.insert(1)
        assert v.group(0).kind == KIND_REGULAR  # 2 of 5 = 40%, not dense
        np.testing.assert_array_equal(v.group(0).members_array(), [0, 4])
        assert v.conversions[(KIND_ONE, KIND_REGULAR)] == 1
        v.check_invariants()

    def test_delete_and_replace(self):
        g = OneElementGroup(0, [7])
        g.replace_index(7, 2)
        assert g.idx == 2
        with pytest.raises(KeyError):
            g.delete(7)
        g.delete(2)

    def test_minimal_memory(self):
        assert OneElementGroup(0, [7]).nbytes == 8


class TestDenseGroup:
    def _vertex(self):
        # Biases: bit0 set for 5 of 8 neighbors (62.5% > alpha).
        return BingoVertex([1, 3, 5, 7, 9, 2, 4, 8], adaptive=True)

    def test_counter_only(self):
        g = DenseGroup(0, [0, 1, 2, 3, 4])
        assert g.size == 5 and g.weight() == 5 and g.nbytes == 8

    def test_sample_by_bit_rejection(self):
        v = self._vertex()
        g = v.group(0)
        assert g.kind == KIND_DENSE
        # Members with bit 0: indices 0..4 (biases 1,3,5,7,9), uniform.
        expected = np.zeros(8)
        expected[:5] = 1 / 5
        assert_distribution(g.sample(rng(4), 40_000, v), expected)
        gen = rng(4)
        assert_distribution([g.sample_one(y, gen, v) for y in gen.random(40_000)], expected)

    def test_sample_one_takes_first_candidate_from_y(self):
        v = self._vertex()
        gen = rng(6)
        state = gen.bit_generator.state
        assert v.group(0).sample_one(2.5 / 8, gen, v) == 2  # bias 5 has bit 0
        assert gen.bit_generator.state == state
        assert v.group(0).sample_one(5.5 / 8, gen, v) in range(5)  # bias 2: retry
        assert gen.bit_generator.state != state

    def test_replace_index_is_noop(self):
        g = DenseGroup(0, [0, 1])
        g.replace_index(0, 5)
        assert g.size == 2

    def test_delete_empty_raises(self):
        g = DenseGroup(0, [])
        with pytest.raises(KeyError):
            g.delete(0)


class TestDecimalGroup:
    """The decimal group over a float-bias vertex's decimal parts, which
    it derives from the vertex's biases; every vertex here keeps λ = 1."""

    def test_weight_is_frac_sum(self):
        v = BingoVertex([100.54, 100.26, 100.20])
        assert v.lam == 1.0
        assert v.group(DECIMAL_KEY).weight() == pytest.approx(1.0)

    def test_sample_proportional_to_fracs(self):
        # A non-empty vertex keeps λ = 1, so the inserts below 1 are
        # decimal parts only, and half the mass is the decimal group's.
        v = BingoVertex([1])
        for b in (0.54, 0.26, 0.20):
            v.insert(b)
        assert v.lam == 1.0 and v.group(DECIMAL_KEY).kind == KIND_DECIMAL
        assert_distribution(v.sample(rng(5), 60_000), [0.5, 0.27, 0.13, 0.10])

    def test_sample_one_takes_first_trial_from_y(self):
        # y·3 = 1.25: candidate 1 (part 0.26) with coin 0.25·max < 0.26.
        v = BingoVertex([100.54, 100.26, 100.20])
        gen = rng(7)
        state = gen.bit_generator.state
        assert v.group(DECIMAL_KEY).sample_one(1.25 / 3, gen, v) == 1
        assert gen.bit_generator.state == state

    def test_insert_delete_replace(self):
        v = BingoVertex([1.5])
        g = v.group(DECIMAL_KEY)
        v.insert(3.25)
        assert g.size == 2 and g.weight() == pytest.approx(0.75)
        np.testing.assert_array_equal(g.members_array(), [0, 1])
        v.delete(0)  # index 1 is renamed to 0
        np.testing.assert_array_equal(g.members_array(), [0])
        assert g.size == 1 and g.weight() == pytest.approx(0.25)
        v.check_invariants()

    def test_max_refresh_on_delete(self):
        v = BingoVertex([1.9, 1.1])
        g = v.group(DECIMAL_KEY)
        assert g._max == pytest.approx(0.9)
        v.delete(0)
        assert g._max == pytest.approx(0.1)


class TestFactory:
    def test_make_group_kinds(self):
        assert make_group(KIND_DENSE, 0, [0, 1]).kind == KIND_DENSE
        assert make_group(KIND_ONE, 0, [0]).kind == KIND_ONE
        assert make_group(KIND_SPARSE, 0, [0, 1]).kind == KIND_SPARSE
        assert make_group(KIND_REGULAR, 0, [0, 1]).kind == KIND_REGULAR

    def test_sparse_memory_below_regular(self):
        # The §5.1 motivation: sparse groups avoid the full-size inverted
        # index. 3 members out of degree 1000.
        members = [5, 500, 999]
        sparse = SparseGroup(3, members, degree_hint=1000)
        regular = RegularGroup(3, members, degree_hint=1000)
        assert sparse.nbytes < regular.nbytes / 10
