"""The Monte Carlo sampler zoo behind Table 1: alias, ITS, rejection,
reservoir (FlowWalker), and BINGO behind one interface — all must realize
Eq. 2 exactly, before and after streaming updates."""
import numpy as np
import pytest

from repro.bench.table1 import METHODS
from repro.core import (
    AliasSampler,
    AliasTable,
    BingoVertex,
    ITSampler,
    RejectionSampler,
    ReservoirSampler,
)
from tests.util import assert_distribution, rng, weights

ALL_SAMPLERS = [AliasSampler, ITSampler, RejectionSampler, ReservoirSampler, BingoVertex]
IDS = [c.name for c in ALL_SAMPLERS]

N_DRAWS = 60_000


@pytest.fixture(params=ALL_SAMPLERS, ids=IDS)
def sampler_cls(request):
    return request.param


class TestDistribution:
    def test_matches_eq2_small(self, sampler_cls):
        w = np.array([5, 4, 3])  # the paper's running example, vertex 2
        s = sampler_cls(w)
        assert_distribution(s.sample(rng(1), N_DRAWS), w / w.sum())

    def test_matches_eq2_skewed(self, sampler_cls):
        w = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 991])
        s = sampler_cls(w)
        assert_distribution(s.sample(rng(2), N_DRAWS), w / w.sum())

    def test_matches_eq2_uniform(self, sampler_cls):
        w = np.full(16, 7)
        s = sampler_cls(w)
        assert_distribution(s.sample(rng(3), N_DRAWS), w / w.sum())

    def test_single_candidate(self, sampler_cls):
        s = sampler_cls(np.array([42]))
        assert (s.sample(rng(4), 100) == 0).all()

    def test_powers_of_two(self, sampler_cls):
        w = np.array([1, 2, 4, 8, 16, 32])
        s = sampler_cls(w)
        assert_distribution(s.sample(rng(5), N_DRAWS), w / w.sum())


class TestUpdates:
    def test_insert_then_distribution(self, sampler_cls):
        w = [3, 5]
        s = sampler_cls(np.array(w))
        idx = s.insert(8)
        assert idx == 2
        assert s.degree == 3
        full = np.array([3, 5, 8])
        assert_distribution(s.sample(rng(6), N_DRAWS), full / full.sum())

    def test_delete_then_distribution(self, sampler_cls):
        s = sampler_cls(np.array([3, 5, 8]))
        s.delete(0)  # tail (8) is renamed to index 0
        assert s.degree == 2
        assert s.weight_of(0) == 8.0
        assert s.weight_of(1) == 5.0
        full = np.array([8, 5])
        assert_distribution(s.sample(rng(7), N_DRAWS), full / full.sum())

    def test_delete_tail(self, sampler_cls):
        s = sampler_cls(np.array([3, 5, 8]))
        s.delete(2)
        assert s.degree == 2
        assert [s.weight_of(i) for i in range(2)] == [3.0, 5.0]

    def test_mixed_update_sequence(self, sampler_cls):
        g = rng(8)
        ref = [int(b) for b in g.integers(1, 64, 8)]
        s = sampler_cls(np.array(ref))
        for _ in range(30):
            if len(ref) > 1 and g.random() < 0.5:
                i = int(g.integers(0, len(ref)))
                ref[i] = ref[-1]
                ref.pop()
                s.delete(i)
            else:
                b = int(g.integers(1, 64))
                ref.append(b)
                s.insert(b)
            assert s.degree == len(ref)
            assert [s.weight_of(i) for i in range(len(ref))] == [float(x) for x in ref]
        full = np.array(ref, dtype=np.float64)
        assert_distribution(s.sample(rng(9), N_DRAWS), full / full.sum())

    def test_total_weight_tracks(self, sampler_cls):
        s = sampler_cls(np.array([2, 3]))
        s.insert(5)
        assert s.total_weight == pytest.approx(10.0, rel=1e-9)
        s.delete(1)
        assert s.total_weight == pytest.approx(7.0, rel=1e-9)

    def test_nbytes_positive(self, sampler_cls):
        assert sampler_cls(np.array([1, 2, 3])).nbytes > 0


class TestAliasTable:
    def test_bucket_invariant(self):
        # Every bucket holds at most 2 candidates with total volume equal
        # to the average bias (§2.3): prob in [0,1], alias well-formed.
        w = np.array([5.0, 4.0, 3.0])
        t = AliasTable(w)
        assert ((t.prob >= 0) & (t.prob <= 1 + 1e-12)).all()
        assert ((t.alias >= 0) & (t.alias < 3)).all()

    def test_reconstructed_weights(self):
        # Summing bucket volumes per candidate reconstructs w * n / total.
        w = np.array([5.0, 4.0, 3.0, 8.0, 1.0])
        t = AliasTable(w)
        recon = t.prob.copy()
        for i in range(len(w)):
            recon[t.alias[i]] += 1.0 - t.prob[i]
        np.testing.assert_allclose(recon, w * len(w) / w.sum(), atol=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasTable([1.0, -1.0])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])

    def test_zero_weight_entry_never_sampled(self):
        t = AliasTable([0.0, 1.0, 3.0])
        draws = t.sample(rng(10), 20_000)
        assert (draws != 0).all()

    def test_tables_match_numpy_vose(self):
        # The table Vose's algorithm builds on Python floats is the one it
        # builds on numpy arrays, byte for byte: same pops, same float64
        # arithmetic. Weights mix zeros, whole numbers and decimals.
        def numpy_vose(w):
            n = len(w)
            scaled = w * (n / float(w.sum()))
            prob = np.ones(n, dtype=np.float64)
            alias = np.arange(n, dtype=np.int64)
            small = [i for i in range(n) if scaled[i] < 1.0]
            large = [i for i in range(n) if scaled[i] >= 1.0]
            while small and large:
                s, l = small.pop(), large.pop()
                prob[s] = scaled[s]
                alias[s] = l
                scaled[l] = scaled[l] + scaled[s] - 1.0
                (small if scaled[l] < 1.0 else large).append(l)
            return prob, alias

        r = rng(12)
        for trial in range(1200):
            n = int(r.integers(1, 301))
            w = r.integers(0, 1000, n).astype(np.float64)
            if trial % 2:
                w = w * r.random(n)
            w[r.random(n) < 0.2] = 0.0
            if not w.any():
                w[0] = 1.0
            t = AliasTable(w)
            prob, alias = numpy_vose(w)
            assert t.prob.dtype == np.float64 and t.alias.dtype == np.int64
            assert t.prob.tobytes() == prob.tobytes(), f"prob differs at n={n}"
            assert t.alias.tobytes() == alias.tobytes(), f"alias differs at n={n}"

    def test_pick_ignores_second_uniform(self):
        # ``pick`` uses only x: bucket int(x·n), accept coin frac(x·n).
        t = AliasTable([5.0, 4.0, 3.0])
        for x in np.linspace(0, 1, 61, endpoint=False):
            j = int(x * 3)
            want = j if x * 3 - j < t.prob[j] else int(t.alias[j])
            assert t.pick(x, 0.0, None) == t.pick(x, 0.99, rng(0)) == want


class TestMethodSpecific:
    def test_its_sampling_is_logarithmic_structure(self):
        s = ITSampler([1, 2, 3])
        # CDF is the prefix sum (Fig. 2(c)).
        np.testing.assert_allclose(s._cdf.view(), [1, 3, 6])

    def test_its_insert_extends_cdf(self):
        s = ITSampler([1, 2])
        s.insert(4)
        np.testing.assert_allclose(s._cdf.view(), [1, 3, 7])

    def test_rejection_stale_max_still_unbiased(self):
        # Deleting the max leaves an upper bound only until rescan; the
        # implementation rescans, but even a stale bound must stay correct.
        s = RejectionSampler([10, 1, 2])
        s.delete(0)
        full = np.array([2.0, 1.0])
        assert_distribution(s.sample(rng(11), N_DRAWS), full / full.sum())

    def test_reservoir_no_auxiliary_structure(self):
        s = ReservoirSampler([1, 2, 3])
        # Memory is the weight array alone — FlowWalker keeps no tables.
        assert s.nbytes == s._w.nbytes

    def test_negative_bias_rejected_everywhere(self):
        for cls in (ITSampler, RejectionSampler, ReservoirSampler):
            with pytest.raises(ValueError):
                cls([1, -2])


@pytest.mark.parametrize("name", list(METHODS))
def test_empty_vertex(name):
    """At d = 0, from an empty build and after the last delete, every
    Table 1 method raises ValueError from ``sample``; an insert makes the
    vertex drawable again."""
    s = METHODS[name]([])
    with pytest.raises(ValueError):
        s.sample(rng(0), 1)
    s.insert(3)
    s.insert(2)
    s.delete(1)
    s.delete(0)
    assert s.degree == 0
    for size in (1, 4):
        with pytest.raises(ValueError):
            s.sample(rng(1), size)
    s.insert(5)
    assert (s.sample(rng(2), 4) == 0).all()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name", list(METHODS))
def test_bad_bias_rejected(name, bad):
    """Every Table 1 method raises ValueError on a bias that is not finite
    and positive, at build and at insert; a rejected insert changes
    nothing."""
    with pytest.raises(ValueError):
        METHODS[name]([1.0, bad])
    s = METHODS[name]([3.0, 5.0])
    with pytest.raises(ValueError):
        s.insert(bad)
    assert weights(s) == [3.0, 5.0]
    assert_distribution(s.sample(rng(12), N_DRAWS), [3 / 8, 5 / 8])
