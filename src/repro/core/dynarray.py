"""Hornet-style dynamic array (paper §9.1 substrate).

BINGO adopts Hornet's dynamic-array design for its adjacency, intra-group
neighbor-index lists, and inverted indices, backed by a memory pool so
deletions release memory "offline" rather than eagerly. We reproduce the
behavioural contract on the CPU:

- amortized O(1) append via capacity doubling;
- O(1) delete-and-swap (``pop_swap``) that never shrinks capacity —
  reclamation is an offline concern, which is why deletion is cheaper
  than insertion in the paper's §6.2 piecewise breakdown;
- ``nbytes`` reports *capacity* bytes (what the pool holds), which is
  what the paper's memory-consumption columns measure.

Batched deletion uses the **two-phase parallel delete-and-swap** of §5.2
(Fig. 10(b)): when deleting N entries of a compact array concurrently,
a naive swap may fill a doomed slot with a tail element that is *itself*
doomed. Phase (i) deletes the doomed elements that sit inside the tail
window of size N (they simply fall off at truncation); the γ deletions
handled there guarantee the remaining N-γ tail elements survive, so
phase (ii) can use them to fill the N-γ doomed slots in the front.
``plan_two_phase_delete`` computes that plan and ``DynArray.compact``
applies it, so every array planned from the same indices stays aligned.
"""
from __future__ import annotations

import numpy as np

_MIN_CAPACITY = 4


def plan_two_phase_delete(d: int, delete_indices) -> tuple[np.ndarray, np.ndarray, int]:
    """Plan the §5.2 two-phase deletion of ``delete_indices`` from a
    compact array of length ``d``.

    Returns ``(slots, fillers, new_d)``: assign ``arr[slots] = arr[fillers]``
    then truncate to ``new_d``. Guarantees: ``fillers`` are all >= new_d
    (tail window), none of them is deleted, and ``len(fillers) == len(slots)``
    = N - γ where γ is the number of doomed entries already in the tail.
    """
    idxs = np.unique(np.asarray(delete_indices, dtype=np.int64))
    if len(idxs) != len(np.asarray(delete_indices)):
        raise ValueError("duplicate delete indices")
    if len(idxs) == 0:
        return idxs, idxs, d
    if idxs[0] < 0 or idxs[-1] >= d:
        raise IndexError("delete index out of range")
    n = len(idxs)
    new_d = d - n
    slots = idxs[idxs < new_d]                      # doomed entries in front
    tail = np.arange(new_d, d, dtype=np.int64)      # phase (i) window
    fillers = tail[~np.isin(tail, idxs)]            # survivors of phase (i)
    assert len(fillers) == len(slots)
    return slots, fillers, new_d


class DynArray:
    """A growable numpy-backed array with swap-deletion.

    Only the first ``len(self)`` entries are live; ``view()`` returns a
    zero-copy window onto them.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, dtype=np.int64, capacity: int = _MIN_CAPACITY):
        self._buf = np.empty(max(_MIN_CAPACITY, capacity), dtype=dtype)
        self._n = 0

    @classmethod
    def from_values(cls, values, dtype=np.int64) -> "DynArray":
        """Build from an iterable/array, with doubling headroom."""
        arr = np.asarray(values, dtype=dtype)
        a = cls(dtype=dtype, capacity=max(_MIN_CAPACITY, 2 * len(arr) or _MIN_CAPACITY))
        a._buf[: len(arr)] = arr
        a._n = len(arr)
        return a

    def __len__(self) -> int:
        return self._n

    def view(self) -> np.ndarray:
        return self._buf[: self._n]

    def __getitem__(self, i: int):
        if not 0 <= i < self._n:
            raise IndexError(i)
        return self._buf[i]

    def __setitem__(self, i: int, v) -> None:
        if not 0 <= i < self._n:
            raise IndexError(i)
        self._buf[i] = v

    def _grow_to(self, need: int) -> None:
        if need <= len(self._buf):
            return
        cap = len(self._buf)
        while cap < need:
            cap *= 2
        new = np.empty(cap, dtype=self._buf.dtype)
        new[: self._n] = self._buf[: self._n]
        self._buf = new

    def append(self, v) -> int:
        """Append one element; returns its index."""
        self._grow_to(self._n + 1)
        self._buf[self._n] = v
        self._n += 1
        return self._n - 1

    def extend(self, values) -> None:
        arr = np.asarray(values, dtype=self._buf.dtype)
        self._grow_to(self._n + len(arr))
        self._buf[self._n : self._n + len(arr)] = arr
        self._n += len(arr)

    def pop_swap(self, i: int):
        """Delete index ``i`` by swapping the tail into it (O(1)).

        Returns the value that now lives at ``i`` (the former tail), or
        ``None`` when ``i`` was the tail itself — callers use this to
        patch inverted indices after the move.
        """
        if not 0 <= i < self._n:
            raise IndexError(i)
        last = self._n - 1
        self._n = last
        if i == last:
            return None
        moved = self._buf[last]
        self._buf[i] = moved
        return moved

    def truncate(self, n: int) -> None:
        """Drop the live length to ``n`` without releasing capacity —
        the bulk tail-drop used by the batched two-phase delete (§5.2)."""
        if not 0 <= n <= self._n:
            raise ValueError(f"cannot truncate {self._n} -> {n}")
        self._n = n

    def compact(self, slots, fillers, n: int) -> None:
        """Apply a ``plan_two_phase_delete`` plan: move the fillers into
        the slots, then truncate to ``n``."""
        buf = self.view()
        buf[slots] = buf[fillers]
        self.truncate(n)

    @property
    def nbytes(self) -> int:
        """Pool-held bytes (capacity, not live length)."""
        return self._buf.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DynArray({self.view().tolist()}, cap={len(self._buf)})"
