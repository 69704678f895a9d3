"""Vectorized random-walk engine over any sampler store (paper §6:
"Bingo performs random walks in a step-by-step manner, where each step
involves sampling to select the next node").

``advance`` is the one step loop under every walk, local or on Spark.
Each walker has its own step counter, so walkers need not move in
lockstep; at each inner step one store call draws every moving
walker's next hop (``sample_next``). Second-order (node2vec) walks use
KnightKing's two-step approach, which the paper adopts (§7.3): sample
from the static per-vertex space, then accept/reject against the history factor
f(prev, x) of Eq. 1 under the envelope h = max(1, 1/q). Two KnightKing
devices keep that cheap. When 1/p > h, the return edge's mass beyond
h·w is folded out of the envelope into an "outlier" region that moves
the walker straight back; and a coin below every non-return factor
accepts without the adjacency probe. A rejected walker stays put and
proposes again at the next inner step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Node2VecParams:
    """Return (p) and in-out (q) hyper-parameters of node2vec (Eq. 1)."""

    p: float = 0.5
    q: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.p < math.inf and 0 < self.q < math.inf):
            raise ValueError(f"p={self.p}, q={self.q} must be finite and positive")

    @property
    def envelope(self) -> float:
        """h = max(1, 1/q): the rejection envelope over every factor but
        a return's 1/p, whose excess over h is the outlier region."""
        return max(1.0, 1.0 / self.q)

    @property
    def lower_bound(self) -> float:
        """min(1, 1/q): the least factor of a candidate other than the
        previous vertex, so a coin below it accepts without a probe."""
        return min(1.0, 1.0 / self.q)


@dataclass
class WalkResult:
    """Outcome of one walk round.

    ``paths`` is an (n_walkers, length+1) int64 array padded with -1
    after each walker's termination (dead end or stop-probability exit).
    ``visits`` counts how often each vertex id was visited across all
    walkers — the indicator PPR and friends aggregate. ``steps`` is the
    total number of sampled transitions (the workload measure used by
    the piecewise breakdown in Fig. 16).
    """

    paths: np.ndarray
    visits: np.ndarray
    steps: int

    def mean_length(self) -> float:
        return float((self.paths >= 0).sum(axis=1).mean() - 1.0)


def check_walk(length: int, stop_prob: float | None) -> None:
    """Raise ``ValueError`` unless ``length >= 0`` and ``stop_prob`` is
    None or in [0, 1] (NaN included)."""
    if length < 0:
        raise ValueError(f"walk length {length} is negative")
    if stop_prob is not None and not 0.0 <= stop_prob <= 1.0:
        raise ValueError(f"stop_prob {stop_prob} is not in [0, 1]")


def advance(store, rng: np.random.Generator, cur: np.ndarray, step: np.ndarray,
            alive: np.ndarray, *, length: int, stop_prob: float | None = None,
            node2vec: Node2VecParams | None = None, stay=None):
    """Step walkers in place; yield the indices that moved at each inner step.

    ``cur``, ``step`` and ``alive`` hold each walker's vertex, step count
    and liveness. A walker moves while it is alive, short of ``length``
    steps and, if ``stay`` is given, at a vertex ``stay`` accepts (``stay``
    maps a vertex array to a mask). Each inner step flips the
    ``stop_prob`` coin for every moving walker, then draws one proposal
    per survivor; a walker at a dead end dies. With ``node2vec`` a walker
    that has a previous vertex goes through ``_second_order``, which
    keeps its proposal, takes it back to the previous vertex, or rejects
    it (Eq. 1, KnightKing's rejection); a rejected walker keeps its
    vertex and step and proposes again next inner step.
    """
    going = alive & (step < length)
    prev = np.full(len(cur), -1, dtype=np.int64)
    while len(idx := np.nonzero(going)[0]):
        if stop_prob is not None:
            stop = rng.random(len(idx)) < stop_prob
            alive[idx[stop]] = going[idx[stop]] = False
            idx = idx[~stop]
        nxt = store.sample_next(rng, cur[idx])
        ok = nxt >= 0
        alive[idx[~ok]] = going[idx[~ok]] = False  # dead end
        if node2vec is not None:
            j = np.nonzero(ok & (prev[idx] >= 0))[0]
            ok[j], nxt[j] = _second_order(store, rng, node2vec, cur[idx[j]],
                                          prev[idx[j]], nxt[j])
        idx = idx[ok]
        prev[idx] = cur[idx]
        cur[idx] = nxt[ok]
        step[idx] += 1
        going[idx] = step[idx] < length
        if stay is not None:
            going[idx] &= stay(cur[idx])
        yield idx


def _second_order(store, rng, n2v: Node2VecParams, at, prev, cand):
    """(accept mask, next vertex) of walkers at ``at`` that came from
    ``prev`` and drew ``cand`` ∝ w(at, ·): KnightKing's rejection for
    Eq. 1, exact for w(at, x)·f(prev, x).

    One coin t per walker, uniform on [0, h + out), where h is
    ``n2v.envelope`` and out = (1/p − h)·w(at→prev)/W(at) is the return
    edge's mass beyond h·w when 1/p > h (else 0). A coin in [h, h + out)
    is the outlier region: the walker moves back to ``prev``. Below h
    the walker keeps ``cand`` and accepts when t < f(prev, cand), where a
    return's factor is min(1/p, h). Only a candidate other than ``prev``
    whose coin is at least ``n2v.lower_bound`` costs a ``has_edge``
    probe. With 1/p <= h this is the plain rejection of f/h, and it
    draws the same numbers.
    """
    h, f_back = n2v.envelope, 1.0 / n2v.p
    t = rng.random(len(cand))
    if f_back > h:
        t *= h + (f_back - h) * store.edge_share(at, prev)
        cand = np.where(t >= h, prev, cand)
        f_back = np.inf  # any coin under h + out keeps a return
    else:
        t *= h
    back = cand == prev
    f = np.where(back, f_back, n2v.lower_bound)
    for i in np.nonzero(~back & (t >= n2v.lower_bound))[0]:
        f[i] = 1.0 if store.has_edge(int(prev[i]), int(cand[i])) else 1.0 / n2v.q
    return t < f, cand


def random_walk(
    store,
    starts,
    rng: np.random.Generator,
    *,
    length: int = 80,
    stop_prob: float | None = None,
    node2vec: Node2VecParams | None = None,
) -> WalkResult:
    """Run one walk per entry of ``starts`` for up to ``length`` steps.

    ``stop_prob`` adds a per-step termination coin (PPR's 1/80 — the
    expected walk length stays ``1/stop_prob``). ``node2vec`` switches on
    the second-order rejection filter; it cannot be combined with
    ``stop_prob``, since a rejected proposal would flip the coin again.
    Walkers die at dead-end vertices (no out-edges), matching the
    paper's step-by-step engine.
    """
    check_walk(length, stop_prob)
    if stop_prob is not None and node2vec is not None:
        raise ValueError("stop_prob and node2vec cannot be combined")
    cur = np.array(starts, dtype=np.int64)
    n = len(cur)
    paths = np.full((n, length + 1), -1, dtype=np.int64)
    paths[:, 0] = cur
    step = np.zeros(n, dtype=np.int64)
    for idx in advance(store, rng, cur, step, np.ones(n, dtype=bool),
                       length=length, stop_prob=stop_prob, node2vec=node2vec):
        paths[idx, step[idx]] = cur[idx]
    return WalkResult(paths=paths, visits=np.bincount(paths[paths >= 0]),
                      steps=int(step.sum()))
