"""Table 3 driver — BINGO vs SOTA runtime and memory.

The paper's workflow (§6.1): per round, ingest BATCHSIZE updates then run
the application; 10 rounds total; report total seconds and peak memory.
BINGO ingests updates incrementally (batched §5.2 path); the static SOTA
engines absorb the updates into their adjacency and then rebuild their
sampling structures from scratch ("we reload or reconstruct the
corresponding structure after each round of updates").

Every framework is driven through the same surface: ``STORES[fw](edges)``
builds it, ``apply_batch`` ingests a round, ``memory_bytes`` reports it.

Lite-scale knobs (see DESIGN.md substitutions): ``jobs/table3_sota.py``
and DESIGN use BATCHSIZE = 1000 events (``run_cell`` falls back to
max(100, |E|/100) when none is given), and walkers are capped (the paper
launches |V| walkers of length 80 on an A100; we keep length 80 and
subsample starts).
"""
from __future__ import annotations

import numpy as np

from ..core import BingoStore
from ..graphs.updates import make_update_plan
from ..sota import SOTA_STORES
from ..synth_data import graph_edges
from ..walk import APPS
from .harness import Timer, mb

STORES = {"bingo": BingoStore, **SOTA_STORES}
FRAMEWORKS = list(STORES)
DEFAULT_GRAPHS = ["AM", "GO", "CT", "LJ", "TW"]
DEFAULT_APPS = ["deepwalk", "node2vec", "ppr"]
DEFAULT_MODES = ["insertion", "deletion", "mixed"]


def run_cell(
    graph: str,
    app: str,
    mode: str,
    framework: str,
    *,
    rounds: int = 10,
    batch_size: int | None = None,
    walkers: int = 256,
    length: int = 80,
    seed: int = 0,
) -> dict:
    """One Table 3 cell: total seconds over ``rounds`` of
    (updates + app) and end-state memory MB for one framework."""
    edges = graph_edges(graph)
    if batch_size is None:
        batch_size = max(100, len(edges) // 100)
    plan = make_update_plan(
        edges, batch_size=batch_size, n_batches=rounds, mode=mode, seed=seed
    )
    store = STORES[framework](plan.initial)  # initial build is not timed (§6.1)
    app_fn = APPS[app]
    rng = np.random.default_rng(seed + 1)
    t_update = 0.0
    t_walk = 0.0
    for batch in plan.batches:
        with Timer() as t:
            store.apply_batch(batch)
        t_update += t.seconds
        kwargs = {"walkers": walkers}
        if app != "ppr":  # PPR's length is governed by its stop probability
            kwargs["length"] = length
        with Timer() as t:
            app_fn(store, rng, **kwargs)
        t_walk += t.seconds
    return {
        "graph": graph,
        "app": app,
        "mode": mode,
        "framework": framework,
        "runtime_s": t_update + t_walk,
        "update_s": t_update,
        "walk_s": t_walk,
        "memory_mb": mb(sum(store.memory_bytes())),
        "batch_size": batch_size,
        "rounds": rounds,
        "walkers": walkers,
        "length": length,
    }


def run_table3(
    *,
    graphs=DEFAULT_GRAPHS,
    apps=DEFAULT_APPS,
    modes=DEFAULT_MODES,
    frameworks=FRAMEWORKS,
    rounds: int = 10,
    batch_size: int | None = None,
    walkers: int = 256,
    length: int = 80,
    seed: int = 0,
    progress=None,
) -> dict:
    """The full grid. ``progress`` is an optional callable(str) used by
    jobs to report long-running cells."""
    rows = []
    for app in apps:
        for mode in modes:
            for graph in graphs:
                for fw in frameworks:
                    row = run_cell(
                        graph, app, mode, fw,
                        rounds=rounds, batch_size=batch_size,
                        walkers=walkers, length=length, seed=seed,
                    )
                    rows.append(row)
                    if progress:
                        progress(
                            f"{app}/{mode}/{graph}/{fw}: "
                            f"{row['runtime_s']:.2f}s {row['memory_mb']:.1f}MB"
                        )
    return {"rows": rows, "speedups": speedups(rows)}


def speedups(rows) -> dict:
    """Average per-cell speedup of BINGO over each comparator, matching
    the paper's "Avg. speedup" column (geometric structure: mean of
    per-cell ratios within each app/mode block)."""
    out: dict = {}
    bingo = {
        (r["app"], r["mode"], r["graph"]): r["runtime_s"]
        for r in rows
        if r["framework"] == "bingo"
    }
    for fw in {r["framework"] for r in rows} - {"bingo"}:
        blocks: dict = {}
        for r in rows:
            if r["framework"] != fw:
                continue
            key = (r["app"], r["mode"])
            base = bingo.get((r["app"], r["mode"], r["graph"]))
            if base:
                blocks.setdefault(key, []).append(r["runtime_s"] / base)
        out[fw] = {
            f"{a}/{m}": float(np.mean(v)) for (a, m), v in sorted(blocks.items())
        }
    return out
