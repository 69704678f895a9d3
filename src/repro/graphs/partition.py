"""1-D vertex partitioning (paper §9.1 "Graph partition").

BINGO (like KnightKing) distributes the graph with 1-D partitioning:
every vertex, its adjacency, and its sampling structures live on exactly
one device; walkers — not structures — move between devices. We map
"device" to "Spark partition" and use a multiplicative hash so partition
sizes stay balanced even on vertex-id ranges with structure.
"""
from __future__ import annotations

import numpy as np

_KNUTH = np.uint64(2654435761)


def partition_of(vertices, n_parts: int) -> np.ndarray:
    """Stable partition id in [0, n_parts) for each vertex id."""
    v = np.asarray(vertices, dtype=np.uint64)
    return ((v * _KNUTH) >> np.uint64(16)).astype(np.int64) % np.int64(n_parts)
