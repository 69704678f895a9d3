"""The radix groups BINGO samples from, checked against DuckDB SQL over
the edge list: Eq. 3/4 bit arithmetic, Eq. 9 kinds and Eq. 5
inter-group probabilities. The groups are read out of the live stores:
right after a build, after batched updates (§5.2), in every Spark
partition, and with float biases (§4.3)."""
import pandas as pd
import pytest

from repro.core import BingoStore
from repro.graphs.updates import apply_updates, make_update_plan
from repro.oracle import assert_equivalent
from repro.spark import SparkBingoEngine
from repro.synth_data import graph_edges
from tests.util import group_frame

#: One row per (src, k) radix group of the λ-scaled integer parts, plus
#: one decimal group (k = -1) per vertex with fractional parts.
GROUPS_SQL = """
WITH e AS (
  SELECT src, CAST(floor(bias * lam) AS BIGINT) AS ip,
         bias * lam - floor(bias * lam) AS frac
  FROM edges JOIN lam USING (src)
), deg AS (
  SELECT src, COUNT(*) AS d FROM e GROUP BY src
), g AS (
  SELECT e.src AS src, t.k AS k, COUNT(*) AS cnt,
         SUM(CAST(1 AS BIGINT) << t.k) AS w
  FROM e, (SELECT UNNEST(range(0, 63)) AS k) t
  WHERE (e.ip >> t.k) & 1 = 1
  GROUP BY e.src, t.k
  UNION ALL
  SELECT src, -1 AS k, COUNT(*) AS cnt, SUM(frac) AS w
  FROM e WHERE frac > 0 GROUP BY src
)
SELECT g.src AS src, g.k AS k, g.cnt AS cnt, g.w AS w, deg.d AS d,
       CASE WHEN g.k = -1 THEN 'decimal'
            WHEN g.cnt * 100.0 / deg.d > 40 THEN 'dense'
            WHEN g.cnt = 1 THEN 'one_element'
            WHEN g.cnt * 100.0 / deg.d < 10 THEN 'sparse'
            ELSE 'regular' END AS kind,
       g.w / SUM(g.w) OVER (PARTITION BY g.src) AS p
FROM g JOIN deg ON g.src = deg.src
"""

#: Local cases: (bias kind, update rounds applied after the build).
LOCAL = {"build": ("int", 0), "updated": ("int", 3),
         "float": ("float", 0), "float-updated": ("float", 3)}


@pytest.fixture(scope="module")
def plans():
    """A GO-lite slice, and the same slice with float biases."""
    edges = graph_edges("GO").head(4000)
    graphs = {"int": edges, "float": edges.assign(bias=edges.bias / 7.0)}
    return {
        bias: make_update_plan(e, batch_size=100, n_batches=3, mode="mixed", seed=21)
        for bias, e in graphs.items()
    }


@pytest.fixture(scope="module")
def spark_states(spark, plans):
    """Every partition's store after the Spark build and after one update."""
    plan = plans["int"]
    eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
    built = [eng.store_of(pid) for pid in range(eng.n_parts)]
    eng.apply_updates(plan.batches[0])
    return {
        "spark-build": (built, plan.initial),
        "spark-updated": ([eng.store_of(pid) for pid in range(eng.n_parts)],
                          apply_updates(plan.initial, plan.batches[:1])),
    }


@pytest.fixture(params=[*LOCAL, "spark-build", "spark-updated"])
def state(request, plans):
    """(stores, the edge list they should hold)."""
    if request.param in LOCAL:
        bias, rounds = LOCAL[request.param]
        plan = plans[bias]
        st = BingoStore(plan.initial)
        for batch in plan.batches[:rounds]:
            st.apply_batch(batch)
        return [st], apply_updates(plan.initial, plan.batches[:rounds])
    return request.getfixturevalue("spark_states")[request.param]


def test_groups_match_duckdb(state):
    stores, edges = state
    got = group_frame(stores)
    assert {"dense", "one_element", "sparse", "regular"} <= set(got.kind)
    if (edges.bias % 1).any():
        assert "decimal" in set(got.kind)
    lam = pd.DataFrame([(u, v.lam) for st in stores for u, v in st._v.items()],
                       columns=["src", "lam"])
    assert_equivalent(got, GROUPS_SQL, edges=edges, lam=lam)


def test_update_stream_oracle(plans):
    """The pandas ground truth every equivalence test trusts equals
    DuckDB set algebra over the same §6.1 stream."""
    plan = plans["int"]
    updates = pd.concat(plan.batches, ignore_index=True)
    assert_equivalent(
        apply_updates(plan.initial, plan.batches),
        """
        SELECT src, dst, bias FROM (
          SELECT src, dst, bias FROM initial
          UNION ALL
          SELECT src, dst, bias FROM updates WHERE op = 1
        ) u
        WHERE NOT EXISTS (
          SELECT 1 FROM updates d
          WHERE d.op = -1 AND d.src = u.src AND d.dst = u.dst
        )
        """,
        initial=plan.initial,
        updates=updates,
    )
