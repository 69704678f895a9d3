"""Table 4 driver — adaptive-group conversion ratios.

The paper runs mixed updates on LiveJournal and reports, for every
(from-kind, to-kind) pair, how rarely groups convert between adaptive
representations — all ratios below 0.47%, which is why the §5.2 rebuild
step stays cheap. We replay the same workload on LJ-lite through the
batched path and report conversions as a percentage of the initial
census of the source kind: the groups of that kind before the update
stream.
"""
from __future__ import annotations

from ..core import BingoStore
from ..graphs.updates import make_update_plan
from ..synth_data import graph_edges

KINDS = ["dense", "regular", "sparse", "one_element"]

#: Paper's Table 4 percentages (LJ, row = from, col = to); "<0.01" kept
#: as strings for the side-by-side report.
PAPER_TABLE4 = {
    "dense": {"regular": "0.02", "sparse": "0.01", "one_element": "0.47"},
    "regular": {"dense": "0.01", "sparse": "<0.01", "one_element": "0.02"},
    "sparse": {"dense": "<0.01", "regular": "<0.01", "one_element": "0.14"},
    "one_element": {"dense": "0.05", "regular": "0.03", "sparse": "0.01"},
}


def run_table4(
    *,
    graph: str = "LJ",
    rounds: int = 10,
    batch_size: int | None = None,
    mode: str = "mixed",
    seed: int = 0,
) -> dict:
    edges = graph_edges(graph)
    if batch_size is None:
        batch_size = max(100, len(edges) // 100)
    plan = make_update_plan(
        edges, batch_size=batch_size, n_batches=rounds, mode=mode, seed=seed
    )
    store = BingoStore(plan.initial)
    census0 = dict(store.group_kind_histogram())
    for batch in plan.batches:
        store.apply_batch(batch)
    conv, touch = store.conversion_stats()
    # Conversion ratio = converted groups of kind f, as a percentage of
    # the population of kind-f groups before the update stream — "how
    # much of the sampling space had to be rebuilt" (§6.3 Table 4).
    matrix = {}
    for f in KINDS:
        denom = max(1, census0.get(f, 0))
        matrix[f] = {
            t: 100.0 * conv.get((f, t), 0) / denom for t in KINDS if t != f
        }
    return {
        "initial_census": census0,
        "graph": graph,
        "batch_size": batch_size,
        "rounds": rounds,
        "touches": dict(touch),
        "conversions": {f"{f}->{t}": c for (f, t), c in conv.items()},
        "matrix": matrix,
        "paper": PAPER_TABLE4,
        "group_census": dict(store.group_kind_histogram()),
    }
