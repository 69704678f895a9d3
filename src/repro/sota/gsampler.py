"""gSampler comparator (paper §6.2 GPU SOTA; [15]).

gSampler expresses sampling through matrix-centric APIs: every walk step
is a fresh tensor computation over the current frontier — gather the
frontier rows, renormalize, prefix-sum, then inverse-transform draw.
Nothing per-vertex is cached across steps, which is exactly why random
walks (80 sequential steps) are gSampler's weak spot in Table 3 despite
its GPU efficiency for one-shot GNN fan-out sampling: each of our
frontier-vertex draws pays O(d) materialization plus an O(log d) search.

Separately, the engine keeps device-resident graph tensors (weights,
normalized probabilities, prefix sums) that are rebuilt from scratch
after every update round — the "laundry list of memory costs" behind
gSampler's top memory column in Table 3.
"""
from __future__ import annotations

import numpy as np

from .base import StaticRebuildStore


class GSamplerStore(StaticRebuildStore):
    name = "gsampler"

    def rebuild(self) -> None:
        # Device-resident graph tensors, reconstructed per round: raw
        # weights, normalized probabilities, and their prefix sums.
        tensors = {}
        for u, _dsts, biases in self.adj.items():
            w = np.asarray(biases, dtype=np.float64)
            p = w / w.sum()
            tensors[u] = (w.copy(), p, np.cumsum(p))
        self._tensors = tensors

    def draw(self, u, biases, rng, m):
        # Per-step matrix materialization: renormalize + prefix-sum the
        # frontier row, then inverse-transform sample.
        cdf = np.cumsum(np.asarray(biases, dtype=np.float64))
        return np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")

    def structure_nbytes(self) -> int:
        return sum(
            w.nbytes + p.nbytes + c.nbytes for w, p, c in self._tensors.values()
        )
