"""Spark layer: the distributed walk/update engine."""
from .engine import SparkBingoEngine

__all__ = ["SparkBingoEngine"]
