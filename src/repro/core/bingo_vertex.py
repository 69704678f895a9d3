"""Per-vertex BINGO sampling structure (paper §4, §5.1).

One ``BingoVertex`` holds the float64 bias array it samples over — in a
``BingoStore`` its adjacency row's ``bias`` (``graphs.dynamic_graph``),
standalone an array of its own — plus one table of its groups and the
inter-group alias table. It copies no bias: a bias's integer part
floor(w·λ) and decimal part w·λ − floor(w·λ) are derived where a draw
or an update reads them. The table keys the radix groups by bit
position and the optional decimal group of the floating-point scheme by
``DECIMAL_KEY``; that group is drawn last and never reclassified. It
knows no destination ids: like every ``VertexSampler`` it works on
adjacency indices in [0, d), and the owning store maps drawn indices to
destinations through its adjacency row. It implements:

- hierarchical O(1) sampling (inter-group alias → intra-group unbiased,
  Eq. 5-7);
- O(K) streaming insert (§4.2): append to each touched group, rebuild
  the K-entry inter-group alias table;
- O(K) streaming delete (§4.2): delete-and-swap in each touched group,
  with the tail's renaming propagated via ``replace_index``, then the
  bias array's swap — the one delete the batched path (§5.2) repeats.
  The row appends a bias before ``_insert_edge`` reads it, and
  swap-deletes one after ``_delete_index``; the standalone ``insert``
  and ``delete`` do so on the vertex's own array;
- adaptive group representations (§5.1) with on-the-fly reclassification
  and conversion counters (the raw data behind the paper's Table 4);
- floating-point biases via the λ amortization factor (§4.3), with one
  bias path: λ comes from the biases (``bits.choose_lambda``), and is 1
  for whole numbers, where no decimal group exists — the integer scheme
  is the float scheme at λ = 1. An empty vertex re-chooses λ from its
  first insert; a non-empty one keeps its λ (``BingoStore.apply_batch``
  rebuilds a vertex whose decimal mass passes 1/d).

With ``adaptive=False`` every group uses the regular representation —
the paper's "BS" baseline from Figures 11/13.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import bits
from .alias import AliasTable
from .dynarray import DynArray
from .groups import (
    KIND_DENSE,
    KIND_ONE,
    KIND_REGULAR,
    KIND_SPARSE,
    classify,
    make_group,
    DecimalGroup,
)
from .sampler_api import VertexSampler

#: Key of the decimal group in the group table and the inter-group keys.
DECIMAL_KEY = -1


class BingoVertex(VertexSampler):
    """BINGO sampling space over one vertex's biases, in index space."""

    name = "bingo"

    def __init__(self, biases, *, adaptive: bool = True) -> None:
        # A row's DynArray (checked as its biases came in) is shared.
        self._b = biases if isinstance(biases, DynArray) else DynArray.from_values(
            bits.check_biases(biases), dtype=np.float64)
        self.adaptive = adaptive
        self.conversions: Counter = Counter()   # (from_kind, to_kind) -> count
        self.touches: Counter = Counter()       # kind -> update ops touching it

        # The groups, from the integer and the decimal parts — O(d·K).
        raw = self._b.view()
        self.lam = bits.choose_lambda(raw)
        ints, decs = bits.float_split(raw, self.lam)
        self._groups: dict = {}
        for k in range(bits.num_bits(int(ints.max(initial=0)))):
            members = bits.group_members(ints, k)
            if len(members):
                self._groups[k] = make_group(
                    self._classify(len(members)), k, members, len(ints)
                )
        dec = np.nonzero(decs > 0)[0]
        if len(dec):
            self._groups[DECIMAL_KEY] = DecimalGroup(dec, decs[dec])
        self._rebuild_inter()

    # -- construction -------------------------------------------------------

    def _classify(self, size: int) -> str:
        return classify(size, self.degree) if self.adaptive else "regular"

    def _rebuild_inter(self) -> None:
        """Rebuild the K-entry inter-group alias table (Eq. 5) — O(K),
        with the decimal group last."""
        keys = sorted(self._groups)
        if keys and keys[0] == DECIMAL_KEY:
            keys.append(keys.pop(0))
        self._inter_groups = [self._groups[k] for k in keys]
        self._inter = AliasTable([g.weight() for g in self._inter_groups]) if keys else None

    # -- views / accessors ---------------------------------------------------

    @property
    def _inter_keys(self) -> list:
        """The group keys in inter-group table order."""
        return [g.k for g in self._inter_groups]

    @property
    def degree(self) -> int:
        return self._b._n

    def int_parts(self) -> np.ndarray:
        """floor(w·λ) at every index: O(d), so never for a draw."""
        return bits.float_split(self._b.view(), self.lam)[0]

    def frac_parts(self, idx):
        """w·λ − floor(w·λ) at an adjacency index or an index array."""
        scaled = self._b._buf[idx] * self.lam
        return scaled - np.floor(scaled)

    def weight_of(self, index: int) -> float:
        """Effective sampling weight w·λ of adjacency index, whose int()
        is its integer part."""
        return float(self._b[index]) * self.lam

    @property
    def total_weight(self) -> float:
        """Σ of the group weights, as the inter-group alias table holds
        it: O(1)."""
        return 0.0 if self._inter is None else self._inter.total

    def decimal_mass_high(self) -> bool:
        """Whether the decimal group holds at least 1/d of the mass, so
        the §4.4 bound on a draw's expected cost has lapsed."""
        dec = self._groups.get(DECIMAL_KEY)
        return dec is not None and dec.weight() * self.degree >= self.total_weight

    def group(self, k: int):
        """The group at radix position k (or the decimal group at
        ``DECIMAL_KEY``), or None (test/bench accessor)."""
        return self._groups.get(k)

    def group_kinds(self) -> dict:
        return {k: g.kind for k, g in self._groups.items()}

    # -- sampling (Eq. 5-7) --------------------------------------------------

    def pick(self, x: float, y: float, rng: np.random.Generator) -> int:
        """Scalar hierarchical draw from two uniforms — the O(1) per-step
        cost a walker pays: ``x`` picks the group by the one-uniform alias
        trick on the inter-group table, and ``y`` a member of a regular or
        sparse group. A dense or decimal group rejects with its own
        ``sample_one`` on ``rng``."""
        inter = self._inter
        if inter is None:
            raise ValueError("sampling from an empty vertex")
        grp = self._inter_groups[inter.pick(x)]
        kind = grp.kind
        if kind == KIND_REGULAR or kind == KIND_SPARSE:
            m = grp.members
            return int(m._buf[int(y * m._n)])
        if kind == KIND_ONE:
            return grp.idx
        return grp.sample_one(rng, self)

    def sample_one(self, rng: np.random.Generator) -> int:
        """One scalar hierarchical draw: ``pick`` on two fresh uniforms."""
        return self.pick(rng.random(), rng.random(), rng)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Hierarchical sampling; returns adjacency indices in [0, d).

        Stage (i) draws all walkers' groups from the inter-group alias
        table in one vectorized call; stage (ii) resolves each selected
        group's walkers together, with the unbiased (uniform member
        pick) case inlined — the per-group loop is over at most K+1
        groups, mirroring the warp-per-group GPU kernel.
        """
        if self._inter is None:
            raise ValueError("sampling from an empty vertex")
        if size == 1:
            return np.array([self.sample_one(rng)], dtype=np.int64)
        sel = self._inter.sample(rng, size)
        order = np.argsort(sel, kind="stable")
        n_keys = len(self._inter_groups)
        bounds = np.searchsorted(sel[order], np.arange(n_keys + 1))
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        for gi in range(n_keys):
            lo, hi = bounds[gi], bounds[gi + 1]
            if lo == hi:
                continue
            sl = order[lo:hi]
            grp = self._inter_groups[gi]
            kind = grp.kind
            if kind == KIND_REGULAR or kind == KIND_SPARSE:
                m = grp.members
                out[sl] = m._buf[(u[sl] * m._n).astype(np.int64)]
            elif kind == KIND_ONE:
                out[sl] = grp.idx
            else:  # dense / decimal: rejection needs its own loop
                out[sl] = grp.sample(rng, hi - lo, self)
        return out

    # -- streaming updates (§4.2) -------------------------------------------

    def _group_insert(self, k: int, idx: int) -> None:
        g = self._groups.get(k)
        if g is None:
            self._groups[k] = make_group(self._classify(1), k, [idx], self.degree)
            return
        self.touches[g.kind] += 1
        if g.kind == KIND_ONE:
            # One-element groups cannot grow in place (§5.2): re-derive the
            # representation for size 2 and re-create the group.
            new_kind = self._classify(2)
            self.conversions[(KIND_ONE, new_kind)] += 1
            self._groups[k] = make_group(new_kind, k, [g.idx, idx], self.degree)
        else:
            g.insert(idx)

    def _reclassify_all(self) -> None:
        """Convert any group whose Eq. 9 class changed (conversion source
        data for Table 4). Non-adaptive mode keeps everything regular."""
        if not self.adaptive or self.degree == 0:
            return
        for k, g in list(self._groups.items()):
            if k == DECIMAL_KEY or (desired := self._classify(g.size)) == g.kind:
                continue
            members = (
                bits.group_members(self.int_parts(), k)
                if g.kind == KIND_DENSE
                else g.members_array()
            )
            self.conversions[(g.kind, desired)] += 1
            self._groups[k] = make_group(desired, k, members, self.degree)

    def _insert_edge(self) -> int:
        """Intra-group part of inserting the bias appended at index d-1;
        caller must ``_finalize_update``. Raises ``ValueError``, before
        any group changes, when its λ-split overflows int64."""
        idx = self.degree - 1
        if idx == 0:  # free: every group is empty
            self.lam = bits.choose_lambda(self._b.view())
        scaled = self.weight_of(idx)
        ip = math.floor(scaled)
        if ip >= bits.INT64_LIMIT:
            raise ValueError(f"bias {self._b[idx]} at λ={self.lam} overflows int64")
        for k in bits.bit_positions(ip):
            self._group_insert(k, idx)
        if scaled > ip:
            dec = self._groups.get(DECIMAL_KEY)
            if dec is None:
                dec = self._groups[DECIMAL_KEY] = DecimalGroup([], [])
            dec.insert(idx, scaled - ip)
        return idx

    def _keys_of(self, idx: int) -> list:
        """Keys of the groups adjacency index ``idx`` is a member of."""
        keys = bits.bit_positions(int(self.weight_of(idx)))
        dec = self._groups.get(DECIMAL_KEY)
        if dec is not None and idx in dec.inv:
            keys.append(DECIMAL_KEY)
        return keys

    def _delete_index(self, idx: int) -> None:
        """Intra-group part of deletion; caller must ``_finalize_update``.

        Runs before the bias array's swap-delete at ``idx``: ``idx``
        leaves its groups, then the tail d-1 is renamed to ``idx``, as
        that swap will move it."""
        for k in self._keys_of(idx):
            g = self._groups[k]
            if k == DECIMAL_KEY:
                g.delete(idx, self)
            else:
                self.touches[g.kind] += 1
                g.delete(idx)
            if g.kind == KIND_ONE or g.size == 0:
                del self._groups[k]
        last = self.degree - 1
        if idx != last:
            for k in self._keys_of(last):
                self._groups[k].replace_index(last, idx)

    def _finalize_update(self) -> None:
        """Reclassify + rebuild the inter-group table — once per streaming
        op, or once per *batch* on the batched path (§5.2's single rebuild)."""
        self._reclassify_all()
        self._rebuild_inter()

    def insert(self, bias) -> int:
        """Streaming insertion (§4.2) — O(K) plus rare conversions;
        returns the new index d-1. A bias that raises is not kept."""
        self._b.append(bits.check_bias(bias))
        try:
            idx = self._insert_edge()
        except ValueError:
            self._b.pop_swap(self.degree - 1)
            raise
        self._finalize_update()
        return idx

    def delete(self, index: int) -> None:
        """Streaming deletion (§4.2): ``_delete_index``, the bias
        array's swap-delete, then one rebuild."""
        index = int(index)
        self._delete_index(index)
        self._b.pop_swap(index)
        self._finalize_update()

    # -- memory accounting (§4.4, Fig. 11, Table 3) --------------------------

    @property
    def nbytes(self) -> int:
        """Sampling-structure bytes: groups + inverted indices + inter
        table; the bias array is the adjacency's."""
        n = sum(g.nbytes for g in self._groups.values())
        if self._inter is not None:
            n += self._inter.nbytes + 8 * len(self._inter_groups)
        return n

    # -- invariants (tests) --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structure matches a from-scratch reconstruction
        from the bias array."""
        d = self.degree
        ints, decs = bits.float_split(self._b.view(), self.lam)
        K = bits.num_bits(int(ints.max(initial=0))) if d else 0
        W = bits.group_weights(ints, K)
        keys = []
        for k in range(K):
            expect = bits.group_members(ints, k)
            g = self._groups.get(k)
            if len(expect) == 0:
                assert g is None, f"group 2^{k} should not exist"
                continue
            assert g is not None, f"group 2^{k} missing"
            assert g.size == len(expect), f"group 2^{k} size mismatch"
            assert g.weight() == W[k], f"W(p_{k}) mismatch"  # Eq. 4
            if self.adaptive:
                assert g.kind == self._classify(g.size), f"group 2^{k} kind stale"
            if g.kind != KIND_DENSE:
                np.testing.assert_array_equal(g.members_array(), expect)
            keys.append(k)
        # The decimal group: the indices with a decimal part, an inverted
        # index that matches them, their parts' sum and a bound on them.
        dec = self._groups.get(DECIMAL_KEY)
        expect = np.nonzero(decs > 0)[0]
        assert (dec is None) == (len(expect) == 0), "decimal group stale"
        if dec is not None:
            assert dec.inv == {int(x): p for p, x in enumerate(dec.members.view())}
            np.testing.assert_array_equal(dec.members_array(), expect)
            assert dec._max >= decs.max()
            assert abs(dec.weight() - decs.sum()) < 1e-9 * max(1, d)
            keys.append(DECIMAL_KEY)
        # The inter-group table draws each group with Eq. 5's W(p_k)/ΣW.
        assert self._inter_groups == [self._groups[k] for k in keys] and len(
            self._groups) == len(keys), "inter-group table stale"
        # ``total_weight``, read from that table, is the groups' sum.
        if keys:
            w = np.array([self._groups[k].weight() for k in keys])
            np.testing.assert_allclose(self._inter.probs(), w / w.sum(), rtol=0, atol=1e-9)
            assert abs(self.total_weight - w.sum()) <= 1e-9 * w.sum(), "total weight stale"
        else:
            assert self._inter is None and self.total_weight == 0.0
