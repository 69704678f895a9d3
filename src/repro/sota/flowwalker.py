"""FlowWalker comparator (paper §6.2 GPU SOTA; [39]).

FlowWalker keeps **no auxiliary sampling structure**: each step runs a
parallel weighted-reservoir scan over the current vertex's full neighbor
list — O(d) work per draw. Updates are therefore nearly free (the graph
is simply reloaded, FlowWalker_R in Fig. 16), but sampling collapses on
high-degree graphs: the paper's 25,000-second Twitter column and the
218.7x sampling gap of Fig. 16(b).
"""
from __future__ import annotations

from ..core.reservoir import reservoir_draw
from .base import StaticRebuildStore


class FlowWalkerStore(StaticRebuildStore):
    name = "flowwalker"

    def rebuild(self) -> None:
        # Nothing to build — sampling scans the adjacency directly. The
        # per-round "reload" cost is the adjacency update itself.
        pass

    def draw(self, u, biases, rng, m):
        # Every draw — even a single walker's — pays the O(d) reservoir
        # scan: that is FlowWalker's defining cost model.
        return reservoir_draw(rng, biases, m)

    def structure_nbytes(self) -> int:
        return 0
