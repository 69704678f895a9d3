"""Per-vertex BINGO sampling structure (paper §4, §5.1).

One ``BingoVertex`` holds the integer parts of a vertex's λ-scaled
biases (a Hornet-style dynamic array), one table of its groups and the
inter-group alias table. The table keys the radix groups by bit position
and the optional decimal group of the floating-point scheme (the only
copy of the decimal parts) by ``DECIMAL_KEY``; that group is drawn last
and never reclassified. It
knows no destination ids: like every ``VertexSampler`` it works on
adjacency indices in [0, d), and the owning store maps drawn indices to
destinations through its adjacency row (``graphs.dynamic_graph``). It
implements:

- hierarchical O(1) sampling (inter-group alias → intra-group unbiased,
  Eq. 5-7);
- O(K) streaming insert (§4.2): append to each touched group, rebuild
  the K-entry inter-group alias table;
- O(K) streaming delete (§4.2): delete-and-swap in each touched group,
  plus the adjacency's swap with index renaming propagated via
  ``replace_index`` — the one delete the batched path (§5.2) repeats;
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

from collections import Counter

import numpy as np

from . import bits
from .alias import AliasTable
from .dynarray import DynArray
from .groups import (
    KIND_DENSE,
    KIND_ONE,
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
        raw = bits.check_biases(biases)
        self.adaptive = adaptive
        self.conversions: Counter = Counter()   # (from_kind, to_kind) -> count
        self.touches: Counter = Counter()       # kind -> update ops touching it

        # The groups, from the integer and the decimal parts — O(d·K).
        self.lam = bits.choose_lambda(raw)
        ints, fracs = bits.float_split(raw, self.lam)
        self._ints = DynArray.from_values(ints, dtype=np.int64)
        self._groups: dict = {}
        for k in range(bits.num_bits(int(ints.max(initial=0)))):
            members = bits.group_members(ints, k)
            if len(members):
                self._groups[k] = make_group(
                    self._classify(len(members)), k, members, len(ints)
                )
        dec = np.nonzero(fracs > 0)[0]
        if len(dec):
            self._groups[DECIMAL_KEY] = DecimalGroup(dec, fracs[dec])
        self._rebuild_inter()

    # -- construction -------------------------------------------------------

    def _classify(self, size: int) -> str:
        if not self.adaptive:
            return "regular"
        return classify(size, self.degree)

    def _rebuild_inter(self) -> None:
        """Rebuild the K-entry inter-group alias table (Eq. 5) — O(K),
        with the decimal group last."""
        keys = sorted(self._groups)
        if keys and keys[0] == DECIMAL_KEY:
            keys.append(keys.pop(0))
        self._inter_keys = keys
        self._inter = AliasTable([self._groups[k].weight() for k in keys]) if keys else None

    # -- views / accessors ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._ints)

    def int_bias_view(self) -> np.ndarray:
        """Integer-part biases — what dense-group rejection tests against."""
        return self._ints.view()

    def weight_of(self, index: int) -> float:
        """Effective (λ-scaled) sampling weight of adjacency index."""
        dec = self._groups.get(DECIMAL_KEY)
        return float(self._ints[index]) + (0.0 if dec is None else dec.frac_of(index))

    @property
    def total_weight(self) -> float:
        return sum(g.weight() for g in self._groups.values())

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

    def sample_one(self, rng: np.random.Generator) -> int:
        """Scalar hierarchical draw: inter-group alias pick, then one
        intra-group draw — the O(1) per-step cost a single walker pays."""
        if self._inter is None:
            raise ValueError("sampling from an empty vertex")
        return self._groups[self._inter_keys[self._inter.sample_one(rng)]].sample_one(rng, self)

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
        n_keys = len(self._inter_keys)
        bounds = np.searchsorted(sel[order], np.arange(n_keys + 1))
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        for gi in range(n_keys):
            lo, hi = bounds[gi], bounds[gi + 1]
            if lo == hi:
                continue
            sl = order[lo:hi]
            grp = self._groups[self._inter_keys[gi]]
            kind = grp.kind
            if kind == "regular" or kind == "sparse":
                m = grp.members
                out[sl] = m._buf[(u[sl] * m._n).astype(np.int64)]
            elif kind == "one_element":
                out[sl] = grp.idx
            else:  # dense / decimal: rejection needs its own loop
                out[sl] = grp.sample(rng, hi - lo, self)
        return out

    # -- streaming updates (§4.2) -------------------------------------------

    def _split_bias(self, bias) -> tuple[int, float]:
        """(integer part, decimal part) of the λ-scaled bias."""
        scaled = float(bias) * self.lam
        ip = int(np.floor(scaled))
        if ip >= bits.INT64_LIMIT:
            raise ValueError(f"bias {bias} at λ={self.lam} overflows int64")
        return ip, scaled - ip

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
        ints = self._ints.view()
        for k, g in list(self._groups.items()):
            if k == DECIMAL_KEY or (desired := self._classify(g.size)) == g.kind:
                continue
            members = (
                bits.group_members(ints, k)
                if g.kind == KIND_DENSE
                else g.members_array()
            )
            self.conversions[(g.kind, desired)] += 1
            self._groups[k] = make_group(desired, k, members, self.degree)

    def _insert_edge(self, bias) -> int:
        """Intra-group part of insertion; caller must ``_finalize_update``."""
        bias = bits.check_bias(bias)
        if self.degree == 0:
            self.lam = bits.choose_lambda([bias])  # free: every group is empty
        ip, frac = self._split_bias(bias)
        idx = self._ints.append(ip)
        for k in bits.bit_positions(ip):
            self._group_insert(k, idx)
        if frac > 0:
            dec = self._groups.get(DECIMAL_KEY)
            if dec is None:
                dec = self._groups[DECIMAL_KEY] = DecimalGroup([], [])
            dec.insert(idx, frac)
        return idx

    def _keys_of(self, idx: int) -> list:
        """Keys of the groups adjacency index ``idx`` is a member of."""
        keys = bits.bit_positions(int(self._ints[idx]))
        dec = self._groups.get(DECIMAL_KEY)
        if dec is not None and idx in dec.inv:
            keys.append(DECIMAL_KEY)
        return keys

    def _delete_index(self, idx: int) -> None:
        """Intra-group part of deletion; caller must ``_finalize_update``.

        ``idx`` leaves its groups, then the tail d-1 is renamed to ``idx``:
        the same swap its adjacency row's delete made."""
        for k in self._keys_of(idx):
            g = self._groups[k]
            if k != DECIMAL_KEY:
                self.touches[g.kind] += 1
            g.delete(idx)
            if g.kind == KIND_ONE or g.size == 0:
                del self._groups[k]
        last = self.degree - 1
        if idx != last:
            for k in self._keys_of(last):
                self._groups[k].replace_index(last, idx)
        self._ints.pop_swap(idx)

    def _finalize_update(self) -> None:
        """Reclassify + rebuild the inter-group table — once per streaming
        op, or once per *batch* on the batched path (§5.2's single rebuild)."""
        self._reclassify_all()
        self._rebuild_inter()

    def insert(self, bias) -> int:
        """Streaming insertion (§4.2) — O(K) plus rare conversions;
        returns the new index d-1."""
        idx = self._insert_edge(bias)
        self._finalize_update()
        return idx

    def delete(self, index: int) -> None:
        """Streaming deletion (§4.2): ``_delete_index`` plus one rebuild."""
        self._delete_index(int(index))
        self._finalize_update()

    # -- memory accounting (§4.4, Fig. 11, Table 3) --------------------------

    @property
    def nbytes(self) -> int:
        """Sampling-structure bytes: groups + inverted indices + inter table
        + the integer-part array (decimal parts live in the decimal group)."""
        n = sum(g.nbytes for g in self._groups.values())
        if self._inter is not None:
            n += self._inter.nbytes + 8 * len(self._inter_keys)
        return n + self._ints.nbytes

    # -- invariants (tests) --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structure matches a from-scratch reconstruction."""
        ints = self._ints.view()
        d = self.degree
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
        # The decimal group: an inverted index that matches its members,
        # which are distinct indices in [0, d), each with a decimal part in
        # (0, 1). ``BingoStore.check_invariants`` checks the parts' values.
        dec = self._groups.get(DECIMAL_KEY)
        if dec is not None:
            m, fr = dec.members.view(), dec.fracs.view()
            assert dec.inv == {int(x): p for p, x in enumerate(m)}
            assert 0 < len(m) == len(fr) and ((0 <= m) & (m < d)).all()
            assert ((0 < fr) & (fr < 1)).all() and dec._max >= fr.max()
            assert abs(dec.weight() - fr.sum()) < 1e-9 * max(1, d)
            keys.append(DECIMAL_KEY)
        # The inter-group table draws each group with Eq. 5's W(p_k)/ΣW.
        assert self._inter_keys == keys and len(self._groups) == len(keys), (
            "inter-group keys stale")
        if keys:
            w = np.array([self._groups[k].weight() for k in keys])
            np.testing.assert_allclose(self._inter.probs(), w / w.sum(), rtol=0, atol=1e-9)
        else:
            assert self._inter is None
