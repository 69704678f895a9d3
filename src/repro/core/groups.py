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
sparse group that also tracks the sum and a bound of its members'
decimal parts, in the owning vertex's one group table next to the radix
groups. A one-element group cannot grow, so the owning vertex re-creates
it. Every group has O(1) ``replace_index`` so the owning vertex can
follow the index its adjacency row's swap-deletion moved. No group
copies a bias; the parts it tests are derived from the vertex's biases.
``BingoVertex.sample`` inlines the vectorized draw of regular, sparse
and one-element groups, and ``BingoVertex.pick`` their scalar draw.
Dense and decimal groups draw by rejection: ``sample`` through the one
vectorized loop (``rejection.rejection_loop``), and ``sample_one``
through its own scalar loop, which ``pick`` calls for each walker.
"""
from __future__ import annotations

import numpy as np

from .dynarray import DynArray
from .rejection import MAX_ROUNDS, rejection_loop

ALPHA = 40.0  # dense threshold, percent (paper §5.1)
BETA = 10.0   # sparse threshold, percent (paper §5.1)

KIND_DENSE = "dense"
KIND_ONE = "one_element"
KIND_SPARSE = "sparse"
KIND_REGULAR = "regular"
KIND_DECIMAL = "decimal"

# Accounting size of one python-dict entry standing in for a compacted
# GPU-side inverted-index slot (key + value + bucket overhead).
_DICT_ENTRY_BYTES = 16


def classify(size: int, degree: int) -> str:
    """Eq. 9, applied in the paper's listed order (dense wins ties)."""
    if degree <= 0 or size <= 0:
        raise ValueError("classify needs positive size and degree")
    ratio = 100.0 * size / degree
    if ratio > ALPHA:
        return KIND_DENSE
    if size == 1:
        return KIND_ONE
    if ratio < BETA:
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
    and accepts when bit k of floor(w·λ) is set: when w·(λ/2^k) has an
    odd integer part, which float64 gets exactly as λ/2^k only shifts the
    exponent. The rejection ratio is bounded by 1 - α%.
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
        b, s = vertex._b, vertex.lam / (1 << self.k)
        return rejection_loop(
            rng, size, b._n, lambda c: ((b._buf[c] * s).astype(np.int64) & 1).astype(bool))

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        b, s = vertex._b, vertex.lam / (1 << self.k)
        buf, d = b._buf, b._n
        for _ in range(MAX_ROUNDS):
            cand = int(rng.random() * d)
            if float(buf[cand]) * s % 2 >= 1:
                return cand
        raise RuntimeError("dense-group rejection failed to converge")

    @property
    def nbytes(self) -> int:
        return 8


class DecimalGroup(SparseGroup):
    """The single fractional-parts group of the float-bias scheme (§4.3):
    a sparse group over the indices with a decimal part w·λ − floor(w·λ)
    > 0 that keeps the parts' sum and an upper bound, not the parts. The
    weights are heterogeneous, so intra-group sampling is rejection
    against the bound, as the paper prescribes ("adopt ITS or rejection").
    """

    kind = KIND_DECIMAL
    __slots__ = ("_total", "_max")

    def __init__(self, members, decs):
        super().__init__(-1, members)  # k = -1: not a radix position
        decs = np.asarray(decs, dtype=np.float64)
        self._total = float(decs.sum())
        self._max = float(decs.max(initial=0.0))

    def weight(self) -> float:
        return self._total

    def insert(self, idx: int, frac: float) -> None:
        super().insert(idx)
        self._total += frac
        self._max = max(self._max, frac)

    def delete(self, idx: int, vertex) -> None:
        """Remove ``idx`` while ``vertex``'s bias array still holds it."""
        gone = float(vertex.frac_parts(idx))
        super().delete(idx)
        self._total -= gone
        # A stale (too-large) max only raises the rejection rate, never
        # biases the draw; refresh when the max itself left.
        if gone >= self._max:
            self._max = float(vertex.frac_parts(self.members.view()).max(initial=0.0))

    def sample(self, rng: np.random.Generator, size: int, vertex) -> np.ndarray:
        m = self.members.view()
        return m[rejection_loop(
            rng, size, len(m),
            lambda c: rng.random(len(c)) * self._max < vertex.frac_parts(m[c]))]

    def sample_one(self, rng: np.random.Generator, vertex) -> int:
        m = self.members
        for _ in range(MAX_ROUNDS):
            idx = int(m._buf[int(rng.random() * m._n)])
            if rng.random() * self._max < vertex.frac_parts(idx):
                return idx
        raise RuntimeError("decimal-group rejection failed to converge")


_GROUP_CLASSES = {
    KIND_DENSE: DenseGroup,
    KIND_ONE: OneElementGroup,
    KIND_SPARSE: SparseGroup,
    KIND_REGULAR: RegularGroup,
}


def make_group(kind: str, k: int, members, degree_hint: int = 0):
    """Instantiate a radix group of the given representation kind."""
    return _GROUP_CLASSES[kind](k, members, degree_hint)
