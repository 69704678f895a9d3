"""Parallel batched graph updates (paper §5.2).

A batch is resolved to net per-edge effects, validating every event
before any store changes. Then each vertex's requests run together:
**insert → delete → rebuild**, with exactly one reclassification +
inter-group table rebuild per vertex per batch (instead of one per op on
the streaming path — the source of the ~1000x gap in Fig. 12).

Deletes swap one edge at a time: the sampler's groups let the edge go
while the row still holds it, then the row swaps it out of the biases
the sampler reads. The paper's two-phase delete (Fig. 10(b))
keeps concurrent GPU threads from moving a doomed tail entry into a
doomed slot; one thread swapping one edge at a time always moves a live
tail entry, so it needs no plan.
"""
from __future__ import annotations

import pandas as pd

from ..graphs.updates import OP_DELETE, OP_INSERT
from .bingo_vertex import BingoVertex
from .bits import check_bias


def resolve_net_effects(has_edge, batch: pd.DataFrame):
    """Collapse an in-order update batch to net per-edge effects (§5.2).

    The paper allows re-inserting a just-deleted edge within a batch via
    timestamps; processing events in order and keeping only each edge's
    final state is equivalent once the whole batch is applied atomically
    before the next walk round (§6 implementation detail ii).

    Returns ``(inserts, deletes)``: dicts keyed by src of [(dst, bias)]
    / [dst] lists, each bias a float64. An edge present both before and
    after the batch (deleted, then inserted again) is a re-insert: it is
    in ``inserts``, and applying it replaces the edge, so it keeps the
    bias of its last insert. Raises before anything changes:
    ``KeyError`` on deleting an edge that is absent at that point of the
    stream or inserting one that is present, ``ValueError`` on a bias
    that is not finite and positive (NaN included) or that float64 would
    round.
    """
    # (src, dst) -> (present before the batch, present now, bias); the
    # store is unchanged until the batch is applied, so one probe per edge.
    state: dict = {}
    for op, src, dst, bias in zip(batch["op"], batch["src"], batch["dst"], batch["bias"]):
        key = (int(src), int(dst))
        entry = state.get(key)
        if entry is None:
            was = present = has_edge(*key)
        else:
            was, present, _ = entry
        if op == OP_INSERT:
            if present:
                raise KeyError(f"insert of existing edge {key}")
            state[key] = (was, True, check_bias(bias))
        elif op == OP_DELETE:
            if not present:
                raise KeyError(f"delete of missing edge {key}")
            state[key] = (was, False, None)
        else:
            raise ValueError(f"unknown op {op}")
    inserts: dict = {}
    deletes: dict = {}
    for (src, dst), (was, present, bias) in state.items():
        if present:
            inserts.setdefault(src, []).append((dst, bias))
        elif was:
            deletes.setdefault(src, []).append(dst)
        # Absent before and after (an insert+delete round trip): nil.
    return inserts, deletes


def batched_delete(v: BingoVertex, dsts, row) -> None:
    """Delete the edges to ``dsts`` from adjacency ``row`` and sampler
    ``v``, which samples over the row's biases: the sampler's groups
    first, while the row still holds the edge, then the row's swap —
    O(K) per edge through the inverted indices. Caller finalizes."""
    for dst in dsts:
        v._delete_index(row.pos[dst])
        row.delete(dst)


def apply_vertex_batch(v: BingoVertex, inserts, deletes, row) -> None:
    """§5.2 per-vertex batch on sampler ``v`` and its adjacency ``row``:
    all inserts, then all deletes, then ONE rebuild (reclassify +
    inter-group table). A re-insert, an insert of an edge ``row``
    still holds, swap-deletes that edge and then appends it anew.

    ``inserts`` is a sequence of (dst, bias); ``deletes`` a sequence of
    dst ids. The caller (store) has already resolved same-edge conflicts
    into net effects per the paper's timestamp rule, and validated them.
    """
    for dst, bias in inserts:
        if dst in row.pos:
            v._delete_index(row.pos[dst])
            row.delete(dst)
        row.append(dst, bias)
        v._insert_edge()
    if deletes:
        batched_delete(v, deletes, row)
    v._finalize_update()
