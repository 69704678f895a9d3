"""Radix-based bias decomposition primitives (paper §4.1, Eq. 3-4).

These are the bit-level building blocks of BINGO: decomposing a bias
``w`` into its power-of-two sub-biases ``D(w)``, aggregating sub-biases
of a neighborhood into per-radix group weights ``W(p_k)``, and the
floating-point amortization-factor machinery of §4.3.
"""
from __future__ import annotations

import math

import numpy as np

#: Integer parts must stay below this to fit the int64 bias arrays.
INT64_LIMIT = 1 << 63

#: The λ search of ``choose_lambda``: factor per step and the last λ tried.
_LAMBDA_BASE = 10.0
_MAX_LAMBDA = 1e9

#: float64 holds every integer of magnitude up to 2**53 exactly.
_FLOAT64_EXACT = 1 << 53


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


def check_bias(bias) -> float:
    """``bias`` as a float64; raises ``ValueError`` unless it is finite
    and positive, and for an integer bias that float64 would round.
    Compares as Python ints: numpy compares an int64 with a float64 in
    float64, where 2**53 + 1 equals 2**53."""
    f = float(bias)
    if not 0 < f < math.inf:  # also rejects NaN
        raise ValueError(f"bias {bias} must be finite and positive")
    if isinstance(bias, (int, np.integer)) and int(f) != int(bias):
        raise ValueError(f"integer bias {bias} has no exact float64")
    return f


def check_biases(biases) -> np.ndarray:
    """``check_bias`` over a bias column, returned as float64: one
    vectorized range test, then only the integers of magnitude above
    2**53 are checked one by one."""
    b = np.asarray(biases)
    if b.dtype.kind in "iu":
        for x in b[np.abs(b) > _FLOAT64_EXACT]:
            check_bias(x)
    w = np.asarray(b, dtype=np.float64)
    if not ((w > 0) & (w < np.inf)).all():  # also rejects NaN
        raise ValueError("biases must be finite and positive")
    return w


def float_split(biases, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale by the amortization factor λ and split into int + decimal parts.

    Returns (integer_parts, decimal_parts) with
    ``integer_parts + decimal_parts == biases * lam`` elementwise, for
    biases that ``check_biases`` accepts.
    """
    scaled = np.asarray(biases, dtype=np.float64) * lam
    ints = np.floor(scaled)
    if len(scaled) and ints.max() >= INT64_LIMIT:
        raise ValueError(f"a bias at λ={lam} overflows int64")
    return ints.astype(np.int64), scaled - ints


def decimal_mass_ratio(biases, lam: float) -> float:
    """W_D / (W_I + W_D) for a candidate λ (§4.4 complexity analysis)."""
    ints, decs = float_split(biases, lam)
    total = float(ints.sum() + decs.sum())
    if total == 0:
        return 1.0
    return float(decs.sum()) / total


def choose_lambda(biases) -> float:
    """Pick λ so the decimal group's mass ratio drops below 1/d (§4.4).

    Whole-number biases (or none) take λ = 1, where there is no decimal
    group at all: the integer scheme is the float scheme at λ = 1. Other
    neighbourhoods grow λ ×10 (the paper's running example uses λ = 10;
    the paper "empirically determines" it) until
    ``W_D/(W_I+W_D) < 1/d``, which keeps hierarchical sampling expected
    O(1). A neighbourhood that misses the target at every λ up to the
    1e9 cap gets the cap.
    """
    b = np.asarray(biases, dtype=np.float64)
    if not (b % 1).any():
        return 1.0
    target = 1.0 / len(b)
    lam = 1.0
    while lam <= _MAX_LAMBDA:
        if decimal_mass_ratio(b, lam) < target:
            return lam
        lam *= _LAMBDA_BASE
    return _MAX_LAMBDA
