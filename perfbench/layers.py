"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces public functions of ``repro.core``,
``repro.walk`` and ``repro.spark`` with wrappers that record one span
(label, parent, start, end, work) per call, and puts the originals back
on exit; nothing under ``src/`` is edited. The benchmark opens its own
spans (``setup``, ``round``, ``update``, ``app``) around the calls it
makes, so every program span has one of them as an ancestor.

Spans live in flat arrays while the run goes on and are written once at
the end. ``layer_metrics`` derives the per-layer metrics and each
label's self time: its span durations minus the part covered by child
spans. Self times of all spans under the traced rounds sum to the traced
round time.
"""
from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np

import repro.core.batched as batched
import repro.core.bingo_vertex as bingo_vertex
import repro.core.groups as groups
import repro.core.store as store
import repro.spark.engine as spark_engine
import repro.walk.apps as apps

BENCH_LABELS = ("setup", "round", "update", "app")

# (owner, attribute, span label, work count taken from the call's args).
# ``work`` is the unit the per-layer counts are made of: walkers for a
# draw, events for an update, weights for an alias table.
PATCHES = [
    (store.BingoStore, "apply_batch", "core.apply_batch", lambda a, k: len(a[1])),
    (store, "resolve_net_effects", "core.update.resolve", lambda a, k: len(a[1])),
    (store, "apply_vertex_batch", "core.update.vertex_batch",
     lambda a, k: len(a[1]) + len(a[2])),
    (batched, "batched_delete", "core.update.batched_delete", lambda a, k: len(a[1])),
    (bingo_vertex, "AliasTable", "core.alias_table", lambda a, k: len(a[0])),
    (store, "BingoVertex", "core.vertex_build", lambda a, k: len(a[0])),
    (store.BingoStore, "has_edge", "core.has_edge", None),
    (store.BingoStore, "vertices", "core.vertices", None),
    (store.BingoStore, "sample_next", "core.sample_next", lambda a, k: len(a[2])),
    (groups.DenseGroup, "sample", "core.dense_draw", lambda a, k: a[2]),
    (groups.DenseGroup, "sample_one", "core.dense_draw", None),
    (apps, "random_walk", "walk.random_walk", lambda a, k: len(a[1])),
    (spark_engine.SparkBingoEngine, "__init__", "spark.build", None),
    (spark_engine.SparkBingoEngine, "apply_updates", "spark.apply_updates",
     lambda a, k: len(a[1])),
    (spark_engine.SparkBingoEngine, "walk", "spark.walk", lambda a, k: len(k["starts"])),
]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.dispatch_groups = 0  # yields of iter_vertex_groups
        self._stack = [-1]

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, label_id: int, work: int) -> int:
        i = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        """A benchmark-side span around a block."""
        i = self._open(self._id(label), 1)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, label: str, work):
        label_id = self._id(label)

        def traced(*args, **kwargs):
            i = self._open(label_id, 1 if work is None else int(work(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _count_groups(self, fn):
        def traced(cur):
            for item in fn(cur):
                self.dispatch_groups += 1
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PATCHES]
        saved.append((store, "iter_vertex_groups", store.iter_vertex_groups))
        try:
            for owner, attr, label, work in PATCHES:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], label, work))
            store.iter_vertex_groups = self._count_groups(store.iter_vertex_groups)
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "label": np.frombuffer(self.label, dtype=np.int32).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path, meta: dict) -> None:
        a = self.arrays()
        np.savez(path, labels=np.array(json.dumps(self.labels)),
                 meta=np.array(json.dumps(meta)), **a)


def span_table(tr: Tracer) -> dict:
    """Per-span derived columns: duration, self time and the label of
    the nearest benchmark-side ancestor (its phase)."""
    a = tr.arrays()
    n = len(a["label"])
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    bench_ids = [tr.labels.index(x) for x in BENCH_LABELS if x in tr.labels]
    is_bench = np.isin(a["label"], bench_ids)
    # Pointer-jump each span to its nearest benchmark-side ancestor.
    owner = np.where(is_bench | ~has_parent, np.arange(n), parent)
    while True:
        step = ~is_bench[owner] & (parent[owner] >= 0)
        if not step.any():
            break
        owner[step] = parent[owner[step]]
    names = np.array(tr.labels + [""], dtype=object)
    return {
        "label": names[a["label"]],
        "parent": names[np.where(has_parent, a["label"][parent], len(tr.labels))],
        "phase": names[a["label"][owner]],
        "dur": dur,
        "self": dur - child,
        "work": a["work"],
    }


def layer_metrics(tr: Tracer, rounds: int, steps: int) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds per round by label) from the
    spans of ``rounds`` traced rounds, which sampled ``steps``
    transitions, plus the traced build."""
    t = span_table(tr)
    lab, ph, par = t["label"], t["phase"], t["parent"]

    def total(label, phase, col="dur", parent=None):
        m = (lab == label) & (ph == phase)
        if parent is not None:
            m &= par == parent
        return float(t[col][m].sum()), int(m.sum()), int(t["work"][m].sum())

    per = max(rounds, 1)
    m = {}
    _, m["core.build.vertices"], _ = total("core.vertex_build", "setup")
    _, m["core.build.alias_tables"], _ = total("core.alias_table", "setup")
    resolve_s, _, _ = total("core.update.resolve", "update")
    vb_s, touched, events = total("core.update.vertex_batch", "update")
    del_s, _, _ = total("core.update.batched_delete", "update")
    alias_s, rebuilds, _ = total("core.alias_table", "update")
    m["core.update.resolve_s"] = resolve_s / per
    m["core.update.vertex_batch_s"] = vb_s / per
    m["core.update.batched_delete_s"] = del_s / per
    m["core.update.alias_rebuild_s"] = alias_s / per
    m["core.update.alias_rebuilds"] = rebuilds / per
    m["core.update.vertices_touched"] = touched / per
    m["core.update.events_per_touched_vertex"] = events / touched if touched else 0.0
    sn_s, sn_calls, proposals = total("core.sample_next", "app")
    m["walk.sample_next_s"] = sn_s / per
    m["walk.vertices_s"] = total("core.vertices", "app")[0] / per
    m["walk.engine_self_s"] = total("walk.random_walk", "app", "self")[0] / per
    m["walk.sample_next_calls"] = sn_calls / per
    m["walk.dispatch_groups"] = tr.dispatch_groups / per
    m["walk.walkers_per_group"] = proposals / tr.dispatch_groups if tr.dispatch_groups else 0.0
    dense_s, _, dense_draws = total("core.dense_draw", "app")
    m["walk.dense_draws"] = dense_draws / per
    m["walk.dense_s"] = dense_s / per
    he_s, he_calls, _ = total("core.has_edge", "app", parent="walk.random_walk")
    m["walk.n2v.has_edge_calls"] = he_calls / per
    m["walk.n2v.has_edge_s"] = he_s / per
    m["walk.n2v.accept_ratio"] = steps / proposals if proposals else 0.0
    m["spark.update_s"] = total("spark.apply_updates", "update")[0] / per
    m["spark.walk_s"] = total("spark.walk", "app")[0] / per

    in_rounds = np.isin(ph, ["round", "update", "app"]) & (lab != "round")
    self_by_label = {
        str(x): float(t["self"][in_rounds & (lab == x)].sum()) / per
        for x in np.unique(lab[in_rounds])
    }
    self_by_label["other"] = float(t["self"][lab == "round"].sum()) / per
    round_s = float(t["dur"][lab == "round"].sum()) / per
    for part in ("update", "app"):
        m[f"split.{part}_frac"] = float(t["dur"][lab == part].sum()) / per / round_s
    m["split.other_frac"] = 1.0 - m["split.update_frac"] - m["split.app_frac"]
    m["trace.round_s"] = round_s
    return m, self_by_label
