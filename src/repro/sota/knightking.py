"""KnightKing comparator (paper §6.2 CPU SOTA; [73]).

KnightKing samples biased first-order walks from per-vertex **alias
tables** (O(1) sampling) and handles second-order biases with rejection
— which our shared walk engine applies on top, since the paper adopts
KnightKing's own approach for node2vec (§7.3). Being a static-graph
engine, every update round forces a full O(d)-per-vertex alias rebuild,
the cost Table 1 attributes to the alias method and Table 3 exposes at
graph scale.
"""
from __future__ import annotations

from ..core.alias import AliasTable
from .base import StaticRebuildStore


class KnightKingStore(StaticRebuildStore):
    name = "knightking"

    def rebuild(self) -> None:
        self._tables = {
            u: AliasTable(biases) for u, _dsts, biases in self.adj.items()
        }

    def draw(self, u, biases, rng, m):
        table = self._tables[u]
        return table.sample_one(rng) if m == 1 else table.sample(rng, m)

    def row_total(self, u: int) -> float:
        """W(u) as the alias table stores it: O(1)."""
        return self._tables[u].total

    def structure_nbytes(self) -> int:
        return sum(t.nbytes for t in self._tables.values())
