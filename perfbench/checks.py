"""Correctness checks of the benchmark: every one runs outside the timed
region, and any failure makes the run exit non-zero.

- ``EdgeOracle`` keeps the edge set of the current round, applying each
  batch with the same set algebra as ``graphs.updates.apply_updates``,
  so each round's walk transitions can be checked against that round's
  graph;
- ``same_edges`` compares a store's final ``edges()`` with
  ``apply_updates(plan.initial, batches)``;
- ``first_hop_pvalue`` is a chi-square test of first hops against Eq. 2's
  ``bias / sum(bias)``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

from repro.graphs.updates import OP_DELETE, OP_INSERT


def edge_keys(src, dst) -> np.ndarray:
    """One int64 key per (src, dst) edge; ids are below 2**31."""
    return np.asarray(src, dtype=np.int64) * (1 << 32) + np.asarray(dst, dtype=np.int64)


class EdgeOracle:
    """Sorted edge keys of the current round's graph."""

    def __init__(self, initial: pd.DataFrame) -> None:
        self.keys = np.unique(edge_keys(initial["src"], initial["dst"]))

    def apply(self, batch: pd.DataFrame) -> None:
        ins = batch[batch["op"] == OP_INSERT]
        dels = batch[batch["op"] == OP_DELETE]
        keys = np.union1d(self.keys, edge_keys(ins["src"], ins["dst"]))
        self.keys = keys[~np.isin(keys, edge_keys(dels["src"], dels["dst"]))]

    def non_edges(self, src, dst) -> int:
        """How many of the transitions (src[i] -> dst[i]) are not edges."""
        k = edge_keys(src, dst)
        pos = np.searchsorted(self.keys, k)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == k[hit]
        return int((~hit).sum())


def path_transitions(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every step of a ``WalkResult.paths`` array; -1 pads
    a walker's path after it ends."""
    a, b = paths[:, :-1], paths[:, 1:]
    live = (a >= 0) & (b >= 0)
    return a[live], b[live]


def segment_transitions(seg: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, int]:
    """(src, dst, gaps) of the Spark engine's (walker, step, vertex)
    segments. ``gaps`` counts walkers whose steps are not 0, 1, 2, ...
    without holes, which would hide transitions."""
    seg = seg.sort_values(["walker", "step"])
    w = seg["walker"].to_numpy()
    s = seg["step"].to_numpy()
    v = seg["vertex"].to_numpy()
    same = w[1:] == w[:-1]
    first = np.r_[True, ~same]
    gaps = int((s[first] != 0).sum() + (s[1:][same] != s[:-1][same] + 1).sum())
    return v[:-1][same], v[1:][same], gaps


def same_edges(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Whether two edge lists hold the same (src, dst, bias) rows."""
    if len(got) != len(want):
        return False
    got = got.sort_values(["src", "dst"])
    want = want.sort_values(["src", "dst"])
    return all(
        np.array_equal(got[c].to_numpy(np.int64), want[c].to_numpy(np.int64))
        for c in ("src", "dst", "bias")
    )


def hub_of(edges: pd.DataFrame) -> tuple[int, np.ndarray, np.ndarray]:
    """(vertex, dsts, biases) of the vertex with the highest out-degree."""
    src = edges["src"].to_numpy()
    hub = int(np.bincount(src).argmax())
    mine = edges[src == hub]
    return hub, mine["dst"].to_numpy(np.int64), mine["bias"].to_numpy(np.float64)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution (Wilson-Hilferty)."""
    if df <= 0:
        return 1.0
    z = ((x / df) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * df))) / math.sqrt(2.0 / (9.0 * df))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def first_hop_pvalue(hops, dsts, biases, *, bins: int = 64) -> float:
    """Chi-square p-value of observed first hops ``hops`` against the
    Eq. 2 distribution ``biases / sum(biases)`` over ``dsts``.

    Neighbours sorted by probability fall into ``bins`` cells of about
    equal mass; cells expecting fewer than 5 draws are merged with the
    next. A hop outside ``dsts`` gives p = 0.
    """
    hops = np.asarray(hops, dtype=np.int64)
    p = biases / biases.sum()
    by_p = np.argsort(p, kind="stable")
    cell = np.empty(len(p), dtype=np.int64)
    mid = np.cumsum(p[by_p]) - p[by_p] / 2
    cell[by_p] = np.minimum(mid * bins, bins - 1).astype(np.int64)
    merged = np.empty(bins, dtype=np.int64)
    g, acc = 0, 0.0
    for i, e in enumerate(np.bincount(cell, weights=p * len(hops), minlength=bins)):
        merged[i] = g
        acc += e
        if acc >= 5:
            g, acc = g + 1, 0.0
    cell = np.minimum(merged, max(g - 1, 0))[cell]  # the tail joins its left cell
    exp = np.bincount(cell, weights=p * len(hops))
    sorter = np.argsort(dsts)
    pos = np.minimum(np.searchsorted(dsts, hops, sorter=sorter), len(dsts) - 1)
    idx = sorter[pos]
    if (dsts[idx] != hops).any():
        return 0.0
    obs = np.bincount(cell[idx], minlength=len(exp))
    return chi2_sf(float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1)
