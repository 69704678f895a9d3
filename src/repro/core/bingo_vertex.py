"""Per-vertex BINGO sampling structure (paper §4, §5.1).

One ``BingoVertex`` holds the integer parts of a vertex's λ-scaled
biases (a Hornet-style dynamic array), its radix groups keyed by bit
position, the optional decimal group of the floating-point scheme (the
only copy of the decimal parts), and the inter-group alias table. It
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
    KIND_DECIMAL,
    KIND_DENSE,
    KIND_ONE,
    classify,
    make_group,
    DecimalGroup,
)
from .sampler_api import VertexSampler

#: Sentinel key for the decimal group in the inter-group key list.
DECIMAL_KEY = -1


class BingoVertex(VertexSampler):
    """BINGO sampling space over one vertex's biases, in index space."""

    name = "bingo"

    def __init__(self, biases, *, adaptive: bool = True) -> None:
        raw = bits.check_biases(biases)
        self.adaptive = adaptive
        self.conversions: Counter = Counter()   # (from_kind, to_kind) -> count
        self.touches: Counter = Counter()       # kind -> update ops touching it

        self.lam = bits.choose_lambda(raw)
        ints, fracs = bits.float_split(raw, self.lam)
        self._ints = DynArray.from_values(ints, dtype=np.int64)

        self._groups: dict = {}
        self._decimal: DecimalGroup | None = None
        self._inter: AliasTable | None = None
        self._inter_keys: list = []
        self._build_groups(fracs)

    # -- construction -------------------------------------------------------

    def _classify(self, size: int) -> str:
        if not self.adaptive:
            return "regular"
        return classify(size, self.degree)

    def _build_groups(self, fracs: np.ndarray) -> None:
        """Build all groups from the integer parts and the decimal parts
        ``fracs`` — O(d·K)."""
        ints = self._ints.view()
        d = len(ints)
        if d == 0:
            self._rebuild_inter()
            return
        K = bits.num_bits(int(ints.max(initial=0)))
        for k in range(K):
            members = bits.group_members(ints, k)
            if len(members):
                self._groups[k] = make_group(
                    self._classify(len(members)), k, members, d
                )
        dec = np.nonzero(fracs > 0)[0]
        if len(dec):
            self._decimal = DecimalGroup(dec, fracs[dec])
        self._rebuild_inter()

    def _rebuild_inter(self) -> None:
        """Rebuild the K-entry inter-group alias table (Eq. 5) — O(K)."""
        keys = sorted(self._groups)
        weights = [self._groups[k].weight() for k in keys]
        if self._decimal is not None and self._decimal.size:
            keys.append(DECIMAL_KEY)
            weights.append(self._decimal.weight())
        self._inter_keys = keys
        self._inter = AliasTable(weights) if keys else None

    # -- views / accessors ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._ints)

    def int_bias_view(self) -> np.ndarray:
        """Integer-part biases — what dense-group rejection tests against."""
        return self._ints.view()

    def weight_of(self, index: int) -> float:
        """Effective (λ-scaled) sampling weight of adjacency index."""
        frac = self._decimal.frac_of(index) if self._decimal is not None else 0.0
        return float(self._ints[index]) + frac

    @property
    def total_weight(self) -> float:
        g = sum(grp.weight() for grp in self._groups.values())
        if self._decimal is not None:
            g += self._decimal.weight()
        return g

    def group(self, k: int):
        """The group at radix position k, or None (test/bench accessor)."""
        if k == DECIMAL_KEY:
            return self._decimal
        return self._groups.get(k)

    def group_kinds(self) -> dict:
        out = {k: g.kind for k, g in self._groups.items()}
        if self._decimal is not None:
            out[DECIMAL_KEY] = KIND_DECIMAL
        return out

    # -- sampling (Eq. 5-7) --------------------------------------------------

    def sample_one(self, rng: np.random.Generator) -> int:
        """Scalar hierarchical draw: inter-group alias pick, then one
        intra-group draw — the O(1) per-step cost a single walker pays."""
        if self._inter is None:
            raise ValueError("sampling from an empty vertex")
        key = self._inter_keys[self._inter.sample_one(rng)]
        grp = self._decimal if key == DECIMAL_KEY else self._groups[key]
        return grp.sample_one(rng, self)

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
            key = self._inter_keys[gi]
            grp = self._decimal if key == DECIMAL_KEY else self._groups[key]
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
            desired = self._classify(g.size)
            if desired == g.kind:
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
            if self._decimal is None:
                self._decimal = DecimalGroup([], [])
            self._decimal.insert(idx, frac)
        return idx

    def _delete_index(self, idx: int) -> None:
        """Intra-group part of deletion; caller must ``_finalize_update``.

        ``idx`` leaves its groups, then the tail d-1 is renamed to ``idx``:
        the same swap its adjacency row's delete made."""
        for k in bits.bit_positions(int(self._ints[idx])):
            g = self._groups[k]
            self.touches[g.kind] += 1
            g.delete(idx)
            if g.kind == KIND_ONE or g.size == 0:
                del self._groups[k]
        dec = self._decimal
        if dec is not None and idx in dec.inv:
            dec.delete(idx)
            if dec.size == 0:
                self._decimal = dec = None
        last = self.degree - 1
        if idx != last:
            for k in bits.bit_positions(int(self._ints[last])):
                self._groups[k].replace_index(last, idx)
            if dec is not None and last in dec.inv:
                dec.replace_index(last, idx)
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
        if self._decimal is not None:
            n += self._decimal.nbytes
        if self._inter is not None:
            n += self._inter.nbytes + 8 * len(self._inter_keys)
        return n + self._ints.nbytes

    # -- invariants (tests) --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structure matches a from-scratch reconstruction."""
        ints = self._ints.view()
        d = self.degree
        K = bits.num_bits(int(ints.max(initial=0))) if d else 0
        for k in range(K):
            expect = bits.group_members(ints, k)
            g = self._groups.get(k)
            if len(expect) == 0:
                assert g is None, f"group 2^{k} should not exist"
                continue
            assert g is not None, f"group 2^{k} missing"
            assert g.size == len(expect), f"group 2^{k} size mismatch"
            if self.adaptive:
                assert g.kind == self._classify(g.size), f"group 2^{k} kind stale"
            if g.kind != KIND_DENSE:
                np.testing.assert_array_equal(g.members_array(), expect)
        # The decimal group: an inverted index that matches its members,
        # which are distinct indices in [0, d), each with a decimal part in
        # (0, 1). ``BingoStore.check_invariants`` checks the parts' values.
        dec = self._decimal
        if dec is not None:
            m, fr = dec.members.view(), dec.fracs.view()
            assert dec.inv == {int(x): p for p, x in enumerate(m)}
            assert 0 < len(m) == len(fr) and ((0 <= m) & (m < d)).all()
            assert ((0 < fr) & (fr < 1)).all() and dec._max >= fr.max()
            assert abs(dec.weight() - fr.sum()) < 1e-9 * max(1, d)
        # Inter-group weights match Eq. 4 recomputed from scratch.
        if d:
            W = bits.group_weights(ints)
            for key, g in self._groups.items():
                assert g.weight() == W[key], f"W(p_{key}) mismatch"
        # The inter-group table draws each group with Eq. 5's W(p_k)/ΣW.
        keys = sorted(self._groups) + ([DECIMAL_KEY] if self._decimal is not None else [])
        assert self._inter_keys == keys, "inter-group keys stale"
        if keys:
            w = np.array([self.group(k).weight() for k in keys])
            np.testing.assert_allclose(self._inter.probs(), w / w.sum(), rtol=0, atol=1e-9)
        else:
            assert self._inter is None
