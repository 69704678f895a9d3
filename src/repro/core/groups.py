"""Radix-group representations, including the adaptive forms of §5.1.

A *group* holds the members of one radix position p_k — the neighbor
indices whose (integer part of the) bias has bit k set. Every member
contributes exactly 2^k, so intra-group sampling is unbiased (Eq. 6) and
the group's weight is ``2^k * |G|`` (Eq. 4). The decimal group of the
floating-point scheme (§4.3) is the one exception: members carry
heterogeneous fractional weights and are drawn by rejection.

Adaptive representations (Eq. 9, α=40, β=10):

- ``DenseGroup``    |G|/d > α%   — store only a counter; sample by
  rejection against the vertex's bias array (bit test), rejection ratio
  bounded by 1-α%.
- ``OneElementGroup`` |G| = 1    — store the single neighbor index.
- ``SparseGroup``   |G|/d < β%  — compact member list + small inverted
  index (a dict here: the CPU analog of the paper's compacted array).
- ``RegularGroup``  otherwise   — full member list + full-size inverted
  index array, the §4.2 baseline structure.

Regular, sparse and decimal groups support O(1) ``insert``/``delete``
(via the inverted index + delete-and-swap); the decimal group is a
sparse group that also keeps its members' fractional weights. A
one-element group cannot grow, so the owning vertex re-creates it.
Every group has O(1) ``replace_index`` so the owning vertex can follow
the index its adjacency row's swap-deletion moved.
``BingoVertex.sample`` inlines the vectorized draw of regular, sparse
and one-element groups; dense and decimal groups draw by rejection in
their own ``sample``.
"""
from __future__ import annotations

import numpy as np

from .dynarray import DynArray
from .rejection import rejection_draw

ALPHA = 40.0  # dense threshold, percent (paper §5.1)
BETA = 10.0   # sparse threshold, percent (paper §5.1)

KIND_DENSE = "dense"
KIND_ONE = "one_element"
KIND_SPARSE = "sparse"
KIND_REGULAR = "regular"
KIND_DECIMAL = "decimal"

_MAX_REJECT_ROUNDS = 10_000

# Accounting size of one python-dict entry standing in for a compacted
# GPU-side inverted-index slot (key + value + bucket overhead).
_DICT_ENTRY_BYTES = 16


def classify(size: int, degree: int, *, alpha: float = ALPHA, beta: float = BETA) -> str:
    """Eq. 9, applied in the paper's listed order (dense wins ties)."""
    if degree <= 0 or size <= 0:
        raise ValueError("classify needs positive size and degree")
    ratio = 100.0 * size / degree
    if ratio > alpha:
        return KIND_DENSE
    if size == 1:
        return KIND_ONE
    if ratio < beta:
        return KIND_SPARSE
    return KIND_REGULAR


class _ListedGroup:
    """What regular and sparse groups share: a member list drawn
    uniformly; they differ only in their inverted index."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)

    def weight(self) -> float:
        return float(self.size << self.k)

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        return int(self.members._buf[int(rng.random() * self.members._n)])

    def members_array(self) -> np.ndarray:
        return np.sort(self.members.view().copy())


class RegularGroup(_ListedGroup):
    """Full intra-group neighbor-index list + full inverted index (§4.2)."""

    kind = KIND_REGULAR
    __slots__ = ("k", "members", "inv")

    def __init__(self, k: int, members, degree_hint: int = 0):
        self.k = k
        self.members = DynArray.from_values(members, dtype=np.int64)
        cap = max(4, degree_hint, (int(self.members.view().max(initial=0)) + 1))
        self.inv = np.full(cap, -1, dtype=np.int64)
        self.inv[self.members.view()] = np.arange(len(self.members))

    def _ensure_inv(self, idx: int) -> None:
        if idx >= len(self.inv):
            cap = len(self.inv)
            while cap <= idx:
                cap *= 2
            new = np.full(cap, -1, dtype=np.int64)
            new[: len(self.inv)] = self.inv
            self.inv = new

    def insert(self, idx: int) -> None:
        self._ensure_inv(idx)
        pos = self.members.append(idx)
        self.inv[idx] = pos

    def delete(self, idx: int) -> None:
        pos = int(self.inv[idx]) if idx < len(self.inv) else -1
        if pos < 0:
            raise KeyError(f"index {idx} not in group 2^{self.k}")
        moved = self.members.pop_swap(pos)
        self.inv[idx] = -1
        if moved is not None:
            self.inv[int(moved)] = pos

    def replace_index(self, old: int, new: int) -> None:
        pos = int(self.inv[old]) if old < len(self.inv) else -1
        if pos < 0:
            raise KeyError(f"index {old} not in group 2^{self.k}")
        self._ensure_inv(new)
        self.members[pos] = new
        self.inv[old] = -1
        self.inv[new] = pos

    @property
    def nbytes(self) -> int:
        return self.members.nbytes + self.inv.nbytes


class SparseGroup(_ListedGroup):
    """Compacted member list + small inverted index (§5.1 sparse form)."""

    kind = KIND_SPARSE
    __slots__ = ("k", "members", "inv")

    def __init__(self, k: int, members, degree_hint: int = 0):
        self.k = k
        self.members = DynArray.from_values(members, dtype=np.int64)
        self.inv = {int(v): p for p, v in enumerate(self.members.view())}

    def insert(self, idx: int) -> None:
        pos = self.members.append(idx)
        self.inv[idx] = pos

    def delete(self, idx: int) -> None:
        pos = self.inv.pop(idx)
        moved = self.members.pop_swap(pos)
        if moved is not None:
            self.inv[int(moved)] = pos

    def replace_index(self, old: int, new: int) -> None:
        pos = self.inv.pop(old)
        self.members[pos] = new
        self.inv[new] = pos

    @property
    def nbytes(self) -> int:
        return self.members.nbytes + _DICT_ENTRY_BYTES * len(self.inv)


class OneElementGroup:
    """A group holding exactly one neighbor index (§5.1)."""

    kind = KIND_ONE
    __slots__ = ("k", "idx")

    def __init__(self, k: int, members, degree_hint: int = 0):
        members = np.asarray(members)
        if len(members) != 1:
            raise ValueError("one-element group must have exactly one member")
        self.k = k
        self.idx = int(members[0])

    @property
    def size(self) -> int:
        return 1

    def weight(self) -> float:
        return float(1 << self.k)

    def delete(self, idx: int) -> None:
        if idx != self.idx:
            raise KeyError(f"index {idx} not in one-element group 2^{self.k}")
        self.idx = -1  # owner removes the now-empty group

    def replace_index(self, old: int, new: int) -> None:
        if old != self.idx:
            raise KeyError(f"index {old} not in one-element group 2^{self.k}")
        self.idx = new

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        return self.idx

    def members_array(self) -> np.ndarray:
        return np.array([self.idx], dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return 8


class DenseGroup:
    """Structure-free dense group (§5.1): counter + rejection sampling.

    Keeps neither a member list nor an inverted index; intra-group
    sampling draws uniformly from the vertex's *original* neighbor list
    and accepts when the candidate's (integer) bias has bit k set. The
    rejection ratio is bounded by 1 - α% because density > α%.
    """

    kind = KIND_DENSE
    __slots__ = ("k", "_count")

    def __init__(self, k: int, members, degree_hint: int = 0):
        self.k = k
        self._count = len(np.asarray(members))

    @property
    def size(self) -> int:
        return self._count

    def weight(self) -> float:
        return float(self._count << self.k)

    def insert(self, idx: int) -> None:
        self._count += 1

    def delete(self, idx: int) -> None:
        if self._count <= 0:
            raise KeyError("delete from empty dense group")
        self._count -= 1

    def replace_index(self, old: int, new: int) -> None:
        pass  # no stored indices to rename

    def sample(self, rng: np.random.Generator, size: int, vertex) -> np.ndarray:
        ints = vertex.int_bias_view()
        d = len(ints)
        k = self.k
        out = np.empty(size, dtype=np.int64)
        pending = np.arange(size)
        for _ in range(_MAX_REJECT_ROUNDS):
            if len(pending) == 0:
                return out
            cand = (rng.random(len(pending)) * d).astype(np.int64)
            accept = ((ints[cand] >> k) & 1).astype(bool)
            out[pending[accept]] = cand[accept]
            pending = pending[~accept]
        raise RuntimeError("dense-group rejection failed to converge")

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        ints = vertex.int_bias_view()
        d = len(ints)
        k = self.k
        for _ in range(_MAX_REJECT_ROUNDS):
            cand = int(rng.random() * d)
            if (int(ints[cand]) >> k) & 1:
                return cand
        raise RuntimeError("dense-group rejection failed to converge")

    @property
    def nbytes(self) -> int:
        return 8


class DecimalGroup(SparseGroup):
    """The single fractional-parts group of the float-bias scheme (§4.3).

    A sparse group whose members also carry their decimal parts after λ
    scaling, at the same positions: the only copy of those parts. The
    weights are heterogeneous, so intra-group sampling is rejection
    against a tracked upper bound, as the paper prescribes ("adopt ITS
    or rejection").
    """

    kind = KIND_DECIMAL
    __slots__ = ("fracs", "_total", "_max")

    def __init__(self, members, fracs):
        super().__init__(-1, members)  # k = -1: not a radix position
        self.fracs = DynArray.from_values(fracs, dtype=np.float64)
        self._total = float(self.fracs.view().sum())
        self._max = float(self.fracs.view().max(initial=0.0))

    def weight(self) -> float:
        return self._total

    def frac_of(self, idx: int) -> float:
        """The decimal part of adjacency index ``idx`` (0 if none)."""
        pos = self.inv.get(idx)
        return 0.0 if pos is None else float(self.fracs._buf[pos])

    def insert(self, idx: int, frac: float) -> None:
        super().insert(idx)
        self.fracs.append(frac)
        self._total += frac
        self._max = max(self._max, frac)

    def delete(self, idx: int) -> None:
        pos = self.inv[idx]
        gone = float(self.fracs[pos])
        super().delete(idx)
        self.fracs.pop_swap(pos)
        self._total -= gone
        # A stale (too-large) max only raises the rejection rate, never
        # biases the draw; refresh when the max itself left.
        if gone >= self._max:
            self._max = float(self.fracs.view().max(initial=0.0))

    def sample(self, rng: np.random.Generator, size: int, vertex) -> np.ndarray:
        m, f = self.members.view(), self.fracs.view()
        return m[rejection_draw(rng, f, self._max, size)]

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        m = self.members.view()
        f = self.fracs.view()
        for _ in range(_MAX_REJECT_ROUNDS):
            pos = int(rng.random() * len(m))
            if rng.random() * self._max < f[pos]:
                return int(m[pos])
        raise RuntimeError("decimal-group rejection failed to converge")

    @property
    def nbytes(self) -> int:
        return super().nbytes + self.fracs.nbytes


_GROUP_CLASSES = {
    KIND_DENSE: DenseGroup,
    KIND_ONE: OneElementGroup,
    KIND_SPARSE: SparseGroup,
    KIND_REGULAR: RegularGroup,
}


def make_group(kind: str, k: int, members, degree_hint: int = 0):
    """Instantiate a radix group of the given representation kind."""
    return _GROUP_CLASSES[kind](k, members, degree_hint)
