"""Distributed BINGO engine on Spark (paper §9.1 scale-out design).

The paper scales BINGO to multiple GPUs with 1-D vertex partitioning and
moves *walkers*, never sampling structures, between devices. This module
maps device → Spark partition:

- each partition's vertices live in one ``BingoStore``, serialized and
  carried as a ``(pid, blob)`` state DataFrame (the "graph + metadata
  stay on the device" rule);
- graph updates are routed to their owning partition with
  ``applyInPandas`` and applied incrementally there (the batched §5.2
  path), producing the next state DataFrame;
- walks advance in rounds: an ``applyInPandas`` task steps every walker
  whose current vertex it owns *for as long as the walk stays local*,
  then emits the walker for the next round (walker forwarding).

Second-order (node2vec) walks need remote adjacency membership checks
(KnightKing answers them with walker messaging); they are supported by
the local engine only — see DESIGN.md layering notes. This engine covers
the first-order kernels (deepwalk / ppr / simple sampling).
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.store import BingoStore
from ..graphs.dynamic_graph import edge_frame
from ..graphs.partition import partition_of

_STATE_SCHEMA = "pid long, blob binary, verts array<long>"
_SEGMENT_SCHEMA = "walker long, step long, vertex long, alive boolean"


def _state_row(pid, store: BingoStore) -> pd.DataFrame:
    """One partition's state row: its pickled store and vertex census."""
    return pd.DataFrame(
        {"pid": [pid], "blob": [pickle.dumps(store)], "verts": [store.vertices()]}
    )


class SparkBingoEngine:
    """1-D partitioned BINGO over a session-scoped SparkSession."""

    def __init__(
        self,
        spark: SparkSession,
        edges: pd.DataFrame,
        *,
        n_parts: int = 4,
    ) -> None:
        self.spark = spark
        self.n_parts = n_parts
        pdf = edges[["src", "dst", "bias"]].copy()
        pdf["pid"] = partition_of(pdf["src"].to_numpy(), n_parts)

        def build(key, part):
            return _state_row(key[0], BingoStore(part[["src", "dst", "bias"]]))

        self._state: dict[int, bytes] = {}
        self._census: dict[int, np.ndarray] = {}
        self._collect(
            self.spark.createDataFrame(pdf)
            .groupBy("pid")
            .applyInPandas(build, _STATE_SCHEMA)
        )

    def _collect(self, states) -> None:
        """Take in the (pid, blob, verts) rows of a build or update job."""
        for r in states.collect():
            self._state[int(r["pid"])] = r["blob"]
            self._census[int(r["pid"])] = np.asarray(r["verts"], dtype=np.int64)

    # -- driver-side views ----------------------------------------------------

    def vertices(self) -> np.ndarray:
        """Vertices with an out-edge, from the partition states' census."""
        return np.sort(np.concatenate([np.empty(0, np.int64), *self._census.values()]))

    def store_of(self, pid: int) -> BingoStore:
        """Deserialize one partition's store (tests / inspection)."""
        return pickle.loads(self._state[pid])

    def edges(self) -> pd.DataFrame:
        return edge_frame(
            t for b in self._state.values() for t in pickle.loads(b).items()
        )

    def memory_bytes(self) -> tuple[int, int]:
        g = s = 0
        for b in self._state.values():
            gg, ss = pickle.loads(b).memory_bytes()
            g += gg
            s += ss
        return g, s

    # -- updates ---------------------------------------------------------------

    def apply_updates(self, batch: pd.DataFrame) -> None:
        """Route one update batch to its owning partitions and apply it
        there on the batched §5.2 path.

        Partitions that receive no updates keep their previous state blob
        (the inter-group space of untouched vertices is not rebuilt)."""
        pdf = batch[["op", "src", "dst", "bias"]].copy()
        pdf["ord"] = np.arange(len(pdf), dtype=np.int64)  # preserve stream order
        pdf["pid"] = partition_of(pdf["src"].to_numpy(), self.n_parts)
        bc = self.spark.sparkContext.broadcast(self._state)

        def update(key, part):
            pid = int(key[0])
            blob = bc.value.get(pid)
            store = pickle.loads(blob) if blob is not None else BingoStore(edge_frame(()))
            store.apply_batch(part.sort_values("ord"))
            return _state_row(pid, store)

        try:
            self._collect(
                self.spark.createDataFrame(pdf)
                .groupBy("pid")
                .applyInPandas(update, _STATE_SCHEMA)
            )
        finally:
            bc.unpersist()

    # -- walks -----------------------------------------------------------------

    def walk(
        self,
        *,
        starts,
        length: int = 80,
        seed: int = 0,
        stop_prob: float | None = None,
    ) -> pd.DataFrame:
        """First-order walks with walker forwarding.

        Returns a segment frame (walker, step, vertex) covering every
        visited position; reconstruct paths by pivoting on (walker, step).
        Each Spark round advances walkers until they leave their current
        partition, die at a dead end, hit the stop coin, or finish. Every
        (round, partition) task draws from its own RNG stream.
        """
        starts = np.asarray(starts, dtype=np.int64)
        walkers = pd.DataFrame(
            {
                "walker": np.arange(len(starts), dtype=np.int64),
                "step": np.zeros(len(starts), dtype=np.int64),
                "vertex": starts,
                "alive": np.ones(len(starts), dtype=bool),
            }
        )
        segments = [walkers[["walker", "step", "vertex"]]]
        bc = self.spark.sparkContext.broadcast(self._state)
        n_parts = self.n_parts

        def advance(key, part):
            pid = int(key[0])
            blob = bc.value.get(pid)
            out_rows = []
            cur = part["vertex"].to_numpy().copy()
            step = part["step"].to_numpy().copy()
            wid = part["walker"].to_numpy()
            alive = np.ones(len(part), dtype=bool)
            if blob is None:
                return pd.DataFrame(
                    {"walker": wid, "step": step, "vertex": cur,
                     "alive": np.zeros(len(part), dtype=bool)}
                )
            store = pickle.loads(blob)
            rng = np.random.default_rng((seed, int(part["round"].iloc[0]), pid))
            local = np.ones(len(part), dtype=bool)
            while True:
                act = alive & local & (step < length)
                if not act.any():
                    break
                idx = np.nonzero(act)[0]
                if stop_prob is not None:
                    keep = rng.random(len(idx)) >= stop_prob
                    alive[idx[~keep]] = False
                    idx = idx[keep]
                    if len(idx) == 0:
                        continue
                nxt = store.sample_next(rng, cur[idx])
                dead = nxt < 0
                alive[idx[dead]] = False
                live = idx[~dead]
                cur[live] = nxt[~dead]
                step[live] += 1
                for j in live:
                    out_rows.append((int(wid[j]), int(step[j]), int(cur[j])))
                # Walkers that crossed partitions wait for the next round.
                local[live] = (
                    partition_of(cur[live], n_parts) == pid
                )
            seg = pd.DataFrame(out_rows, columns=["walker", "step", "vertex"])
            tail = pd.DataFrame(
                {"walker": wid, "step": step, "vertex": cur,
                 "alive": alive & (step < length)}
            )
            # Emitted segments carry alive=False so the driver only
            # re-dispatches the per-walker tail rows.
            seg["alive"] = False
            return pd.concat([seg, tail], ignore_index=True)

        try:
            for rnd in range(length):
                live = walkers[walkers["alive"]]
                if live.empty:
                    break
                pdf = live.copy()
                pdf["pid"] = partition_of(pdf["vertex"].to_numpy(), self.n_parts)
                pdf["round"] = rnd
                res = (
                    self.spark.createDataFrame(
                        pdf[["walker", "step", "vertex", "alive", "pid", "round"]]
                    )
                    .groupBy("pid")
                    .applyInPandas(advance, _SEGMENT_SCHEMA)
                    .toPandas()
                )
                # Tail rows: exactly one per dispatched walker — the row
                # with that walker's maximal step.
                # Sort alive last so a tail row (alive may be True) wins
                # over a same-step segment row (alive always False).
                tails = (
                    res.sort_values(["walker", "step", "alive"])
                    .groupby("walker", as_index=False)
                    .last()
                )
                visited = res[res["step"] > 0][["walker", "step", "vertex"]]
                segments.append(visited.drop_duplicates(["walker", "step"]))
                done = walkers[~walkers["alive"]]
                tails = tails[["walker", "step", "vertex", "alive"]]
                tails.loc[tails["step"] >= length, "alive"] = False
                walkers = pd.concat([done, tails], ignore_index=True)
        finally:
            bc.unpersist()
        out = (
            pd.concat(segments, ignore_index=True)
            .drop_duplicates(["walker", "step"])
            .sort_values(["walker", "step"])
            .reset_index(drop=True)
        )
        return out
