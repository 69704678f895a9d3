"""KnightKing comparator (paper §6.2 CPU SOTA; [73]).

KnightKing samples biased first-order walks from per-vertex **alias
tables** (O(1) sampling) and handles second-order biases with rejection
— which our shared walk engine applies on top, since the paper adopts
KnightKing's own approach for node2vec (§7.3). Like KnightKing, it steps
each walker on its own with one O(1) table draw, through the kernel
``BingoStore`` uses (``core.store.draw_each``), so Table 3 compares the
samplers and not the kernels. Being a static-graph engine, every update
round forces a full O(d)-per-vertex alias rebuild, the cost Table 1
attributes to the alias method and Table 3 exposes at graph scale.
"""
from __future__ import annotations

import numpy as np

from ..core.alias import AliasTable
from ..core.store import draw_each
from .base import StaticRebuildStore


class KnightKingStore(StaticRebuildStore):
    name = "knightking"

    def rebuild(self) -> None:
        self._tables = {
            u: AliasTable(biases) for u, _dsts, biases in self.adj.items()
        }

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next hop per walker (-1 for dead ends): one alias pick per
        walker (``AliasTable.pick``)."""
        return draw_each(rng, cur, self.adj.rows, self._tables)

    def row_total(self, u: int) -> float:
        """W(u) as the alias table stores it: O(1)."""
        return self._tables[u].total

    def structure_nbytes(self) -> int:
        return sum(t.nbytes for t in self._tables.values())
