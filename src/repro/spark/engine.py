"""Distributed BINGO engine on Spark (paper §9.1 scale-out design).

The paper scales BINGO to multiple GPUs with 1-D vertex partitioning:
each device keeps its partition's sampling structures resident, and only
*walkers* move between devices. This module maps device → Spark
partition:

- each partition's vertices live in one ``BingoStore``. The driver
  holds every partition's store pickled, in a ``pid -> blob`` dict (the
  state of record), plus each partition's vertex census. A build or
  update job returns one ``(pid, blob, verts)`` row per partition it
  touched; the driver broadcasts each returned blob once, under a fresh
  version token, and destroys the broadcast it replaces. Untouched
  partitions keep their broadcast and token, a walk creates none, and
  ``close`` destroys them all;
- each Python worker keeps the stores its tasks used resident, in
  ``_RESIDENT`` (``pid -> (token, store)``, one entry per pid). A task
  takes its partition's store from there when the token is the
  driver's; otherwise it unpickles its own pid's broadcast, the only
  one it reads, and caches the result. With
  ``spark.python.worker.reuse=false`` every task starts in a fresh
  worker, so every read is a miss: the results are the same, only
  slower;
- graph updates are routed to their owning partition with
  ``applyInPandas`` and applied incrementally there (the batched §5.2
  path). An update task pops its resident store, updates it, returns it
  re-pickled and caches it under the job's new token. A failed job
  thus leaves no mutated store under a token the driver adopts, and
  the next task reloads the old broadcast;
- walks advance in rounds that ship only walkers: an ``applyInPandas``
  task runs the local engine's step loop (``walk.engine.advance``) on
  the walkers whose current vertex it owns, with ``stay`` set to its
  own partition, so each walker steps *for as long as the walk stays
  local*. The task emits one row per move and forwards each walker that
  crossed into another partition to the next round (walker forwarding).

Second-order (node2vec) walks need remote adjacency membership checks
(KnightKing answers them with walker messaging); they are supported by
the local engine only — see DESIGN.md layering notes. This engine covers
the first-order kernels (deepwalk / ppr / simple sampling).
"""
from __future__ import annotations

import pickle
from uuid import uuid4

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import SparkSession

from ..core.store import BingoStore
from ..graphs.dynamic_graph import edge_frame
from ..graphs.partition import partition_of
from ..walk.engine import advance, check_walk

_STATE_SCHEMA = "pid long, blob binary, verts array<long>"
_SEGMENT_SCHEMA = "walker long, step long, vertex long, alive boolean"

# This worker's resident partition stores: pid -> (token, store). Tasks
# reach it only through the module-level helpers below, which cloudpickle
# ships by reference; a closure naming it would ship a copy.
_RESIDENT: dict[int, tuple[str, BingoStore]] = {}


def _resident(pid: int, shipped: tuple[str, Broadcast], *, take: bool = False) -> BingoStore:
    """Partition ``pid``'s store at the version ``shipped = (token,
    broadcast)``: this worker's resident copy if its token matches, else
    unpickled from the broadcast blob. A read caches a loaded store; a
    ``take`` (for an update, which mutates it) pops the entry instead,
    and ``_state_row`` caches the result under the update's new token."""
    token, bc = shipped
    entry = _RESIDENT.pop(pid, None) if take else _RESIDENT.get(pid)
    if entry is not None and entry[0] == token:
        return entry[1]
    store = pickle.loads(bc.value)
    if not take:
        _RESIDENT[pid] = (token, store)
    return store


def _tokens(pids) -> dict[int, str]:
    """A fresh version token for each partition a job will return."""
    return {int(p): uuid4().hex for p in np.unique(pids)}


def _rows(wid, step, cur, idx, alive: bool) -> pd.DataFrame:
    """Segment-schema rows for the walkers at positions ``idx``."""
    return pd.DataFrame(
        {"walker": wid[idx], "step": step[idx], "vertex": cur[idx],
         "alive": np.full(len(idx), alive)}
    )


def _state_row(pid: int, store: BingoStore, token: str) -> pd.DataFrame:
    """One partition's state row, its pickled store and vertex census;
    ``store`` stays resident on this worker at version ``token``."""
    row = pd.DataFrame(
        {"pid": [pid], "blob": [pickle.dumps(store)], "verts": [store.vertices()]}
    )
    _RESIDENT[pid] = (token, store)
    return row


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
        tokens = _tokens(pdf["pid"])

        def build(key, part):
            pid = int(key[0])
            return _state_row(pid, BingoStore(part[["src", "dst", "bias"]]), tokens[pid])

        self._state: dict[int, bytes] = {}
        self._census: dict[int, np.ndarray] = {}
        # What the tasks read: each partition's (token, broadcast blob).
        self._shipped: dict[int, tuple[str, Broadcast]] = {}
        if len(pdf):  # Spark cannot infer an empty frame's schema
            self._collect(
                self.spark.createDataFrame(pdf)
                .groupBy("pid")
                .applyInPandas(build, _STATE_SCHEMA),
                tokens,
            )

    def _collect(self, states, tokens: dict[int, str]) -> None:
        """Take in the (pid, blob, verts) rows of a build or update job,
        and broadcast each blob under the job's token for its pid."""
        for r in states.collect():
            pid = int(r["pid"])
            self._state[pid] = r["blob"]
            self._census[pid] = np.asarray(r["verts"], dtype=np.int64)
            old = self._shipped.get(pid)
            self._shipped[pid] = (tokens[pid], self.spark.sparkContext.broadcast(r["blob"]))
            if old is not None:
                old[1].destroy()

    def close(self) -> None:
        """Destroy this engine's broadcasts and drop its partition states,
        leaving an engine with no graph; a second call does nothing."""
        for _, bc in self._shipped.values():
            bc.destroy()
        self._state, self._census, self._shipped = {}, {}, {}

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

        Partitions that receive no updates keep their previous state blob,
        broadcast and token (the inter-group space of untouched vertices
        is not rebuilt). A batch that raises in any partition leaves
        every partition's state as it was. An empty batch starts no job."""
        if batch.empty:
            return
        pdf = batch[["op", "src", "dst", "bias"]].copy()
        pdf["ord"] = np.arange(len(pdf), dtype=np.int64)  # preserve stream order
        pdf["pid"] = partition_of(pdf["src"].to_numpy(), self.n_parts)
        tokens = _tokens(pdf["pid"])
        shipped = self._shipped

        def update(key, part):
            pid = int(key[0])
            store = (_resident(pid, shipped[pid], take=True) if pid in shipped
                     else BingoStore(edge_frame(())))
            store.apply_batch(part.sort_values("ord"))
            return _state_row(pid, store, tokens[pid])

        self._collect(
            self.spark.createDataFrame(pdf)
            .groupBy("pid")
            .applyInPandas(update, _STATE_SCHEMA),
            tokens,
        )

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
        shipped = self._shipped
        n_parts = self.n_parts

        def forward(key, part):
            pid = int(key[0])
            part = part.sort_values("walker")
            wid = part["walker"].to_numpy()
            step = part["step"].to_numpy().copy()
            cur = part["vertex"].to_numpy().copy()
            if pid not in shipped:  # no out-edges here: every walker is done
                return _rows(wid, step, cur, [], False)
            rng = np.random.default_rng((seed, int(part["round"].iloc[0]), pid))
            alive = np.ones(len(part), dtype=bool)
            moves = [
                _rows(wid, step, cur, idx, False)
                for idx in advance(_resident(pid, shipped[pid]), rng, cur, step, alive,
                                   length=length, stop_prob=stop_prob,
                                   stay=lambda c: partition_of(c, n_parts) == pid)
            ]
            # A walker still alive short of ``length`` left the partition.
            crossed = np.nonzero(alive & (step < length))[0]
            return pd.concat(
                [*moves, _rows(wid, step, cur, crossed, True)], ignore_index=True
            )

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
        return pd.concat(segments, ignore_index=True).sort_values(
            ["walker", "step"], ignore_index=True
        )
