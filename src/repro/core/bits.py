"""Radix-based bias decomposition primitives (paper §4.1, Eq. 3-4).

These are the bit-level building blocks of BINGO: decomposing a bias
``w`` into its power-of-two sub-biases ``D(w)``, aggregating sub-biases
of a neighborhood into per-radix group weights ``W(p_k)``, and the
floating-point amortization-factor machinery of §4.3.
"""
from __future__ import annotations

import numpy as np

#: Integer parts must stay below this to fit the int64 bias arrays.
INT64_LIMIT = 1 << 63


def num_bits(max_bias: int) -> int:
    """K — the number of radix groups needed for biases up to ``max_bias``."""
    return max(1, int(max_bias).bit_length())


def bit_positions(w: int) -> list[int]:
    """Bit positions k with ``w & 2^k != 0`` — the groups edge ``w`` joins.

    ``D(w) = {2^k : k in bit_positions(w)}`` (Eq. 3), and its size is
    t = popc(w), the per-edge group count of the §4.4 memory analysis."""
    return [k for k in range(int(w).bit_length()) if w & (1 << k)]


def group_weights(biases, K: int | None = None) -> np.ndarray:
    """W(p_k) for k in [0, K) over a neighborhood's biases (Eq. 4).

    ``W(p_k) = sum_i (w_i & 2^k) = 2^k * |{i : bit k of w_i set}|``.
    """
    b = np.asarray(biases, dtype=np.int64)
    if (b < 0).any():
        raise ValueError("biases must be non-negative")
    if K is None:
        K = num_bits(int(b.max(initial=0)))
    return np.array(
        [int(((b >> k) & 1).sum()) << k for k in range(K)], dtype=np.int64
    )


def group_members(biases, k: int) -> np.ndarray:
    """Neighbor indices whose bias has bit ``k`` set — group p_k's members."""
    b = np.asarray(biases, dtype=np.int64)
    return np.nonzero((b >> k) & 1)[0].astype(np.int64)


# --- floating-point biases (§4.3) --------------------------------------------


def float_split(biases, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale by the amortization factor λ and split into int + decimal parts.

    Returns (integer_parts, decimal_parts) with
    ``integer_parts + decimal_parts == biases * lam`` elementwise.
    """
    scaled = np.asarray(biases, dtype=np.float64) * lam
    if (scaled < 0).any():
        raise ValueError("biases must be non-negative")
    if (scaled >= INT64_LIMIT).any():
        raise ValueError(f"a bias at λ={lam} overflows int64")
    ints = np.floor(scaled).astype(np.int64)
    return ints, scaled - ints


def decimal_mass_ratio(biases, lam: float) -> float:
    """W_D / (W_I + W_D) for a candidate λ (§4.4 complexity analysis)."""
    ints, fracs = float_split(biases, lam)
    total = float(ints.sum() + fracs.sum())
    if total == 0:
        return 1.0
    return float(fracs.sum()) / total


def choose_lambda(biases, *, target_ratio: float | None = None, base: float = 10.0,
                  max_lambda: float = 1e9) -> float:
    """Pick λ so the decimal group's mass ratio drops below 1/d (§4.4).

    The paper "empirically determines" λ; we grow it geometrically (×base,
    the paper's running example uses λ=10) until
    ``W_D/(W_I+W_D) < target_ratio`` (default 1/d), which keeps the
    hierarchical sampling expected O(1).
    """
    b = np.asarray(biases, dtype=np.float64)
    if len(b) == 0:
        return 1.0  # nothing to scale; an empty vertex re-chooses on insert
    d = len(b)
    if target_ratio is None:
        target_ratio = 1.0 / d
    lam = 1.0
    while lam <= max_lambda:
        if decimal_mass_ratio(b, lam) < target_ratio:
            return lam
        lam *= base
    return lam
