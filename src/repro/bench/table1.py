"""Table 1 driver — empirical validation of the complexity table.

The paper's Table 1 is analytic:

    | Name      | Insertion | Deletion | Sampling     | Memory  |
    | Bingo     | O(K)      | O(K)     | O(1)         | O(d*K)  |
    | Alias     | O(d)      | O(d)     | O(1)         | O(d)    |
    | ITS       | O(1)      | O(d)     | O(log2 d)    | O(d)    |
    | Rejection | O(1)      | O(d)     | O(d*max/Σw)  | O(d)    |

We validate it empirically: sweep the vertex degree d, measure per-op
latency of insert / delete / sample and structure bytes for each method,
and fit the log-log scaling exponent. A ~0 exponent is O(1)-or-O(K)
behaviour; ~1 is O(d). Reservoir sampling (FlowWalker's method) is
included as a fifth row for the Fig. 16 sampling-gap narrative.
"""
from __future__ import annotations

import time

import numpy as np

from ..core import (
    AliasSampler,
    BingoVertex,
    ITSampler,
    RejectionSampler,
    ReservoirSampler,
)
from ..synth_data import biases
from .harness import fit_loglog_slope

METHODS = {
    "bingo": BingoVertex,
    "alias": AliasSampler,
    "its": ITSampler,
    "rejection": RejectionSampler,
    "reservoir": ReservoirSampler,
}

#: Table 1's claimed asymptotics, for side-by-side printing.
CLAIMED = {
    "bingo": ("O(K)", "O(K)", "O(1)", "O(d*K)"),
    "alias": ("O(d)", "O(d)", "O(1)", "O(d)"),
    "its": ("O(1)", "O(d)", "O(log2 d)", "O(d)"),
    "rejection": ("O(1)", "O(d)", "O(d*max/Sw)", "O(d)"),
    "reservoir": ("O(1)", "O(1)", "O(d)", "O(d)"),
}


def _time_per_op(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n * 1e6  # microseconds


def run_cell(method: str, d: int, *, n_ops: int = 400, n_draws: int = 1500,
             seed: int = 0) -> dict:
    """Measure one (method, degree) cell: per-op µs for insert, delete,
    sample (size-1 draws — the per-step cost a walker pays), and bytes."""
    g = np.random.default_rng(seed)
    w = biases("powerlaw", d, seed=seed, max_bias=4096)
    s = METHODS[method](w)
    rng = np.random.default_rng(seed + 1)

    t_sample = _time_per_op(lambda: s.sample(rng, 1), n_draws)

    pool = iter(biases("powerlaw", n_ops, seed=seed + 2, max_bias=4096).tolist())
    t_insert = _time_per_op(lambda: s.insert(next(pool)), n_ops)
    # Delete random indices, restoring the original degree.
    t_delete = _time_per_op(
        lambda: s.delete(int(g.integers(0, s.degree))), n_ops
    )
    return {
        "method": method,
        "d": d,
        "insert_us": t_insert,
        "delete_us": t_delete,
        "sample_us": t_sample,
        "bytes": s.nbytes,
    }


def run_table1(*, degrees=(64, 256, 1024, 4096, 16384), n_ops: int = 400,
               n_draws: int = 1500, seed: int = 0) -> dict:
    """Full sweep + fitted exponents. Returns {rows, slopes}."""
    rows = [
        run_cell(m, d, n_ops=n_ops, n_draws=n_draws, seed=seed)
        for m in METHODS
        for d in degrees
    ]
    slopes = {}
    for m in METHODS:
        sub = [r for r in rows if r["method"] == m]
        ds = [r["d"] for r in sub]
        slopes[m] = {
            "insert": fit_loglog_slope(ds, [r["insert_us"] for r in sub]),
            "delete": fit_loglog_slope(ds, [r["delete_us"] for r in sub]),
            "sample": fit_loglog_slope(ds, [r["sample_us"] for r in sub]),
            "memory": fit_loglog_slope(ds, [r["bytes"] for r in sub]),
        }
    return {"rows": rows, "slopes": slopes, "claimed": CLAIMED}
