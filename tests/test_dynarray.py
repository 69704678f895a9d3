"""Hornet-style dynamic array substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynarray import DynArray


class TestBasics:
    def test_empty(self):
        a = DynArray()
        assert len(a) == 0
        assert a.view().tolist() == []

    def test_append_returns_index(self):
        a = DynArray()
        assert a.append(10) == 0
        assert a.append(20) == 1
        assert a.view().tolist() == [10, 20]

    def test_from_values(self):
        a = DynArray.from_values([3, 1, 2])
        assert a.view().tolist() == [3, 1, 2]

    def test_extend(self):
        a = DynArray.from_values([1])
        a.extend([2, 3, 4])
        assert a.view().tolist() == [1, 2, 3, 4]

    def test_getitem_setitem(self):
        a = DynArray.from_values([5, 6])
        a[1] = 9
        assert a[1] == 9

    def test_index_errors(self):
        a = DynArray.from_values([1])
        with pytest.raises(IndexError):
            a[1]
        with pytest.raises(IndexError):
            a[1] = 0
        with pytest.raises(IndexError):
            a.pop_swap(1)

    def test_float_dtype(self):
        a = DynArray(dtype=np.float64)
        a.append(0.5)
        assert a.view().dtype == np.float64


class TestGrowth:
    def test_capacity_doubles(self):
        a = DynArray(capacity=4)
        start = a.nbytes
        for i in range(100):
            a.append(i)
        assert len(a) == 100
        assert a.nbytes >= 100 * 8
        assert a.nbytes > start

    def test_view_is_live_window(self):
        a = DynArray.from_values([1, 2, 3])
        v = a.view()
        v[0] = 42
        assert a[0] == 42


class TestPopSwap:
    def test_middle_swap_returns_moved(self):
        a = DynArray.from_values([10, 20, 30])
        moved = a.pop_swap(0)
        assert moved == 30
        assert a.view().tolist() == [30, 20]

    def test_tail_swap_returns_none(self):
        a = DynArray.from_values([10, 20])
        assert a.pop_swap(1) is None
        assert a.view().tolist() == [10]

    def test_capacity_never_shrinks(self):
        # Deletion leaves memory for offline reclamation (paper §6.2 iii).
        a = DynArray.from_values(list(range(64)))
        cap = a.nbytes
        for _ in range(60):
            a.pop_swap(0)
        assert a.nbytes == cap

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_pop_swap_preserves_multiset(self, values, data):
        a = DynArray.from_values(values)
        ref = list(values)
        while len(ref):
            i = data.draw(st.integers(min_value=0, max_value=len(ref) - 1))
            # Reference semantics: element i replaced by tail element.
            ref[i] = ref[-1]
            ref.pop()
            a.pop_swap(i)
            assert sorted(a.view().tolist()) == sorted(ref)
