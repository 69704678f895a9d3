"""Distributed BINGO engine on Spark (paper §9.1 scale-out design).

The paper scales BINGO to multiple GPUs with 1-D vertex partitioning and
moves *walkers*, never sampling structures, between devices. This module
maps device → Spark partition:

- each partition's vertices live in one ``BingoStore``. The driver
  holds every partition's store pickled, in a ``pid -> blob`` dict,
  plus each partition's vertex census; a build or update job returns
  one ``(pid, blob, verts)`` row per partition it touched;
- graph updates are routed to their owning partition with
  ``applyInPandas`` and applied incrementally there (the batched §5.2
  path). The job broadcasts all partitions' blobs, and each task
  unpickles its own, updates it and returns it re-pickled;
- walks advance in rounds: each round broadcasts all blobs the same
  way, and an ``applyInPandas`` task runs the local engine's step loop
  (``walk.engine.advance``) on the walkers whose current vertex it owns,
  with ``stay`` set to its own partition, so each walker steps *for as
  long as the walk stays local*. The task emits one row per move and
  forwards each walker that crossed into another partition to the next
  round (walker forwarding).

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
from ..walk.engine import advance, check_walk

_STATE_SCHEMA = "pid long, blob binary, verts array<long>"
_SEGMENT_SCHEMA = "walker long, step long, vertex long, alive boolean"


def _rows(wid, step, cur, idx, alive: bool) -> pd.DataFrame:
    """Segment-schema rows for the walkers at positions ``idx``."""
    return pd.DataFrame(
        {"walker": wid[idx], "step": step[idx], "vertex": cur[idx],
         "alive": np.full(len(idx), alive)}
    )


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
        if len(pdf):  # Spark cannot infer an empty frame's schema
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
        (the inter-group space of untouched vertices is not rebuilt).
        An empty batch starts no job."""
        if batch.empty:
            return
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

        Returns a segment frame (walker, step, vertex), one row per
        visited position, sorted by (walker, step); reconstruct paths by
        pivoting on (walker, step). In each Spark round, one task per
        partition runs ``walk.engine.advance`` on its walkers until they
        leave the partition, die at a dead end, hit the stop coin, or
        finish. A task returns one ``alive=False`` row per move it made
        and one ``alive=True`` row per walker it forwards to another
        partition; the driver keeps the first kind and re-dispatches the
        second. Every (round, partition) task draws from its own RNG
        stream, in walker-id order. Raises ``ValueError`` before any job
        on ``length < 0`` or a ``stop_prob`` outside [0, 1].
        """
        check_walk(length, stop_prob)
        starts = np.asarray(starts, dtype=np.int64)
        walkers = pd.DataFrame(
            {
                "walker": np.arange(len(starts), dtype=np.int64),
                "step": np.zeros(len(starts), dtype=np.int64),
                "vertex": starts,
            }
        )
        segments = [walkers]
        bc = self.spark.sparkContext.broadcast(self._state)
        n_parts = self.n_parts

        def forward(key, part):
            pid = int(key[0])
            part = part.sort_values("walker")
            wid = part["walker"].to_numpy()
            step = part["step"].to_numpy().copy()
            cur = part["vertex"].to_numpy().copy()
            blob = bc.value.get(pid)
            if blob is None:  # no out-edges here: every walker is done
                return _rows(wid, step, cur, [], False)
            rng = np.random.default_rng((seed, int(part["round"].iloc[0]), pid))
            alive = np.ones(len(part), dtype=bool)
            moves = [
                _rows(wid, step, cur, idx, False)
                for idx in advance(pickle.loads(blob), rng, cur, step, alive,
                                   length=length, stop_prob=stop_prob,
                                   stay=lambda c: partition_of(c, n_parts) == pid)
            ]
            # A walker still alive short of ``length`` left the partition.
            crossed = np.nonzero(alive & (step < length))[0]
            return pd.concat(
                [*moves, _rows(wid, step, cur, crossed, True)], ignore_index=True
            )

        try:
            for rnd in range(length):
                if walkers.empty:
                    break
                pdf = walkers.assign(
                    pid=partition_of(walkers["vertex"].to_numpy(), n_parts),
                    round=rnd,
                )
                res = (
                    self.spark.createDataFrame(pdf)
                    .groupBy("pid")
                    .applyInPandas(forward, _SEGMENT_SCHEMA)
                    .toPandas()
                )
                segments.append(res.loc[~res["alive"], ["walker", "step", "vertex"]])
                walkers = res.loc[res["alive"], ["walker", "step", "vertex"]]
        finally:
            bc.unpersist()
        return pd.concat(segments, ignore_index=True).sort_values(
            ["walker", "step"], ignore_index=True
        )
