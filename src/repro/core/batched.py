"""Parallel batched graph updates (paper §5.2).

The batched path groups all update requests of one vertex together and
performs, in order: **insert → delete → rebuild**, with exactly one
group-reclassification + inter-table rebuild per vertex per batch
(instead of one per op on the streaming path — the source of the
~1000x batched-vs-streamed gap in Fig. 12).

Deletes use the two-phase parallel delete-and-swap of Fig. 10(b)
(``dynarray.plan_two_phase_delete``). One plan is computed per vertex and
applied to both the sampler and its adjacency row, so they stay aligned
by construction.
"""
from __future__ import annotations

import numpy as np

from .bingo_vertex import BingoVertex
from .dynarray import plan_two_phase_delete


def batched_delete(v: BingoVertex, idxs):
    """Delete many indices of one vertex with the two-phase plan, and
    return the plan ``(slots, fillers, new_d)`` for the adjacency row.

    Group-structure removal stays O(1) per (index, touched group) via the
    inverted indices; the compaction runs as one vectorized two-phase
    move instead of per-edge swaps. Caller finalizes.
    """
    for idx in idxs:
        v._leave_groups(int(idx))
    slots, fillers, new_d = plan_two_phase_delete(v.degree, idxs)
    # Rename surviving tail elements (fillers) to their new front slots in
    # every group that references them — the batched analog of the
    # streaming path's single swap renaming.
    for p, f in zip(slots.tolist(), fillers.tolist()):
        v._rename(f, p)
    v._ints.compact(slots, fillers, new_d)
    v._fracs.compact(slots, fillers, new_d)
    return slots, fillers, new_d


def apply_vertex_batch(v: BingoVertex, inserts, deletes, row) -> None:
    """§5.2 per-vertex batch on sampler ``v`` and its adjacency ``row``:
    all inserts, then all deletes (two-phase), then ONE rebuild
    (reclassify + inter-group table).

    ``inserts`` is a sequence of (dst, bias); ``deletes`` a sequence of
    dst ids. The caller (store) has already resolved same-edge conflicts
    into net effects per the paper's timestamp rule.
    """
    for dst, bias in inserts:
        v._insert_edge(bias)  # validates the bias before either side changes
        row.append(int(dst), bias)
    if deletes:
        idxs = np.array([row.pos.pop(int(d)) for d in deletes], dtype=np.int64)
        row.compact(*batched_delete(v, idxs))
    v._finalize_update()
