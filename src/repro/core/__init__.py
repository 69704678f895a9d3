"""BINGO core: radix-based bias factorization and the sampler zoo."""
from .alias import AliasSampler, AliasTable
from .bingo_vertex import BingoVertex, DECIMAL_KEY
from .its import ITSampler
from .rejection import RejectionSampler
from .reservoir import ReservoirSampler
from .sampler_api import VertexSampler
from .store import BingoStore

__all__ = [
    "AliasSampler",
    "AliasTable",
    "BingoVertex",
    "BingoStore",
    "DECIMAL_KEY",
    "ITSampler",
    "RejectionSampler",
    "ReservoirSampler",
    "VertexSampler",
]
