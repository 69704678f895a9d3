"""Shared test helpers: statistical distribution checks with fixed seeds,
and a read-out of the radix groups a BINGO store samples from."""
from __future__ import annotations

import numpy as np
import pandas as pd


def empirical_probs(draws: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(np.asarray(draws, dtype=np.int64), minlength=k)
    return counts / len(draws)


def assert_distribution(draws, expected_probs, *, z: float = 4.5) -> None:
    """Assert empirical frequencies match ``expected_probs`` within a
    z-sigma binomial band per category. With z=4.5 and fixed seeds the
    false-failure probability per category is ~7e-6 — deterministic in
    practice, but still sensitive to any real bias."""
    p = np.asarray(expected_probs, dtype=np.float64)
    emp = empirical_probs(draws, len(p))
    n = len(draws)
    tol = z * np.sqrt(p * (1 - p) / n) + 1e-12
    bad = np.abs(emp - p) > tol
    assert not bad.any(), (
        f"distribution mismatch at {np.nonzero(bad)[0]}: emp={emp[bad]} "
        f"expected={p[bad]} tol={tol[bad]}"
    )


def weights(sampler) -> list:
    """A ``VertexSampler``'s weight at every index, in index order."""
    return [sampler.weight_of(i) for i in range(sampler.degree)]


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def group_frame(stores) -> pd.DataFrame:
    """Every radix group of every vertex in ``stores`` (``BingoStore``s),
    read as ``check_invariants`` reads them: one (src, k, cnt, w, kind, d,
    p) row per group, where ``k`` is -1 for the decimal group, ``w`` is in
    λ-scaled units and ``p`` is the group's Eq. 5 probability as the
    inter-group alias table draws it."""
    rows = []
    for st in stores:
        for u, v in st._v.items():
            p = dict(zip(v._inter_keys, v._inter.probs())) if v.degree else {}
            for k, kind in v.group_kinds().items():
                g = v.group(k)
                rows.append((u, k, g.size, g.weight(), kind, v.degree, p[k]))
    return pd.DataFrame(rows, columns=["src", "k", "cnt", "w", "kind", "d", "p"])
