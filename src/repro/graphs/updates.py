"""Dynamic update-stream generation (paper §6.1 "Datasets").

The paper creates dynamic workloads from a static graph in three steps:
(i) randomly split the edge set into A (|E| - 10*BATCHSIZE edges) and B
(10*BATCHSIZE edges); (ii) for each of the 10*BATCHSIZE update events,
flip a coin between insert and delete; (iii) a delete removes a randomly
chosen edge currently in A, an insert moves a random edge from B into A.
Three workloads are derived: "insertion" (inserts only), "deletion"
(deletes only), and "mixed" (50/50).

We keep the construction deterministic in ``seed`` and pre-plan delete
targets from the initial A without replacement — i.e. an insert from B is
never subsequently deleted. This is one valid realization of the paper's
random process and keeps every batch exactly ``batch_size`` events.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

OP_INSERT = 1
OP_DELETE = -1

#: Columns of an update-batch frame, in event order.
UPDATE_COLUMNS = ["op", "src", "dst", "bias"]


@dataclass(frozen=True)
class UpdatePlan:
    """A dynamic workload: the initial edges plus ordered update batches.

    ``initial`` is the set-A edge list the structures are built from;
    ``batches`` is a list of ``n_batches`` DataFrames with columns
    (op, src, dst, bias) where op is +1 insert / -1 delete, each of
    exactly ``batch_size`` events in stream order.
    """

    mode: str
    initial: pd.DataFrame
    batches: list


def make_update_plan(
    edges: pd.DataFrame,
    *,
    batch_size: int,
    n_batches: int = 10,
    mode: str = "mixed",
    seed: int = 17,
) -> UpdatePlan:
    """Split ``edges`` into initial graph + update batches per §6.1.

    ``mode`` is "insertion", "deletion", or "mixed". For "insertion" all
    10*BATCHSIZE events come from set B; for "deletion" they all remove
    initial edges; "mixed" alternates by coin flip with equal counts in
    expectation.
    """
    if mode not in ("insertion", "deletion", "mixed"):
        raise ValueError(f"unknown update mode: {mode}")
    total = batch_size * n_batches
    m = len(edges)
    if total >= m:
        raise ValueError(f"need {total} updates but graph has only {m} edges")
    g = np.random.default_rng(seed)
    perm = g.permutation(m)
    b_idx = perm[:total]          # set B: edges held back for insertion
    a_idx = perm[total:]          # set A: the initial graph

    initial = edges.iloc[np.sort(a_idx)].reset_index(drop=True)
    b_pool = edges.iloc[b_idx].reset_index(drop=True)

    if mode == "insertion":
        ops = np.full(total, OP_INSERT, dtype=np.int64)
    elif mode == "deletion":
        ops = np.full(total, OP_DELETE, dtype=np.int64)
    else:
        ops = np.where(g.random(total) < 0.5, OP_INSERT, OP_DELETE).astype(np.int64)

    n_ins = int((ops == OP_INSERT).sum())
    n_del = total - n_ins
    if n_del > len(initial):
        raise ValueError("more deletions than initial edges")
    ins_edges = b_pool.iloc[:n_ins].reset_index(drop=True)
    del_pick = g.choice(len(initial), size=n_del, replace=False)
    del_edges = initial.iloc[del_pick].reset_index(drop=True)

    # Each column keeps its source column's dtype, so float biases stay
    # float.
    ins_rows = ops == OP_INSERT
    stream = pd.DataFrame({"op": ops})
    for col in ("src", "dst", "bias"):
        values = np.empty(total, dtype=edges[col].dtype)
        values[ins_rows] = ins_edges[col].to_numpy()
        values[~ins_rows] = del_edges[col].to_numpy()
        stream[col] = values

    batches = [
        stream.iloc[i * batch_size : (i + 1) * batch_size].reset_index(drop=True)
        for i in range(n_batches)
    ]
    return UpdatePlan(mode=mode, initial=initial, batches=batches)


def apply_updates(initial: pd.DataFrame, batches) -> pd.DataFrame:
    """Reference (oracle-side) application of update batches to an edge list.

    Pure pandas set algebra: each edge a batch touches takes the state of
    its last event in that batch, present with that event's bias after
    an insert and absent after a delete. Tests check every engine's
    post-update adjacency against this ground truth.
    """

    def key(f):
        return f.src.astype(np.int64) * (1 << 32) + f.dst.astype(np.int64)

    edges = initial[["src", "dst", "bias"]].copy()
    for batch in batches:
        last = batch.drop_duplicates(["src", "dst"], keep="last")
        ins = last[last.op == OP_INSERT][["src", "dst", "bias"]]
        edges = pd.concat([edges[~key(edges).isin(set(key(last)))], ins], ignore_index=True)
    return edges.sort_values(["src", "dst"]).reset_index(drop=True)
