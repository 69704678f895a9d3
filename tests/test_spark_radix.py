"""The radix tables of the stores the Spark engine's partitions hold,
checked one table at a time against DuckDB bit arithmetic over the edge
list: Eq. 3 sub-biases, Eq. 4 group weights, Eq. 5 inter-group
probabilities and Eq. 9 group kinds. ``test_group_oracle.py`` checks the
same groups as one joined table across builds and updates."""
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core import BingoStore
from repro.core.bingo_vertex import DECIMAL_KEY
from repro.core.groups import KIND_DENSE
from repro.oracle import assert_equivalent
from repro.spark import SparkBingoEngine
from tests.util import group_frame

#: Eq. 9 over the Eq. 3 bit arithmetic: one (src, k, cnt, d, kind) row
#: per non-empty radix group of integer biases.
CLASSIFY_SQL = """
WITH gw AS (
  SELECT e.src AS src, t.k AS k, COUNT(*) AS cnt
  FROM edges e, (SELECT UNNEST(range(0, {K})) AS k) t
  WHERE (e.bias >> t.k) & 1 = 1
  GROUP BY e.src, t.k
), deg AS (
  SELECT src, COUNT(*) AS d FROM edges GROUP BY src
)
SELECT gw.src AS src, gw.k AS k, gw.cnt AS cnt, deg.d AS d,
       CASE WHEN gw.cnt * 100.0 / deg.d > 40 THEN 'dense'
            WHEN gw.cnt = 1 THEN 'one_element'
            WHEN gw.cnt * 100.0 / deg.d < 10 THEN 'sparse'
            ELSE 'regular' END AS kind
FROM gw JOIN deg ON gw.src = deg.src
"""


@pytest.fixture(scope="module")
def edges_pdf():
    return synth_data.graph_edges("GO").head(4000)


@pytest.fixture(scope="module")
def stores(spark, edges_pdf):
    """Every partition's ``BingoStore`` after the Spark build."""
    eng = SparkBingoEngine(spark, edges_pdf, n_parts=4)
    return [eng.store_of(pid) for pid in range(eng.n_parts)]


@pytest.fixture(scope="module")
def groups(stores):
    got = group_frame(stores)
    assert (got.k != DECIMAL_KEY).all()  # whole-number biases: λ = 1
    return got


def _k_of(pdf):
    return max(1, int(pdf.bias.max()).bit_length())


def sub_bias_frame(stores) -> pd.DataFrame:
    """Eq. 3 as the stores hold it: one (src, dst, k, sub_bias) row per
    edge and radix group the edge is a member of. A dense group keeps no
    member list; its members are the indices its rejection test accepts."""
    rows = []
    for st in stores:
        for u, dst, _ in st.items():
            v = st._v[u]
            for k, kind in v.group_kinds().items():
                g = v.group(k)
                if kind == KIND_DENSE:
                    members = np.nonzero((v.int_parts() >> k) & 1)[0]
                else:
                    members = g.members_array()
                assert len(members) == g.size
                rows += [(u, int(dst[i]), k, 1 << k) for i in members]
    return pd.DataFrame(rows, columns=["src", "dst", "k", "sub_bias"])


class TestRadixDecompose:
    def test_subbias_sums_reconstruct_bias(self, stores, edges_pdf):
        got = sub_bias_frame(stores).groupby(["src", "dst"], as_index=False).sub_bias.sum()
        assert_equivalent(
            got, "SELECT src, dst, bias AS sub_bias FROM edges", edges=edges_pdf
        )

    def test_paper_example(self):
        # Fig. 4: vertex 2 with biases {5, 4, 3} towards {1, 4, 5}.
        pdf = pd.DataFrame({"src": [2, 2, 2], "dst": [1, 4, 5], "bias": [5, 4, 3]})
        got = sub_bias_frame([BingoStore(pdf)]).sort_values(["dst", "k"])
        assert list(got[["dst", "k", "sub_bias"]].itertuples(index=False, name=None)) == [
            (1, 0, 1), (1, 2, 4), (4, 2, 4), (5, 0, 1), (5, 1, 2)
        ]


class TestGroupWeights:
    def test_oracle(self, groups, edges_pdf):
        K = _k_of(edges_pdf)
        assert_equivalent(
            groups[["src", "k", "w", "cnt"]],
            f"""
            SELECT e.src AS src, t.k AS k,
                   SUM(CAST(1 << t.k AS BIGINT)) AS w,
                   COUNT(*) AS cnt
            FROM edges e, (SELECT UNNEST(range(0, {K})) AS k) t
            WHERE (e.bias >> t.k) & 1 = 1
            GROUP BY e.src, t.k
            """,
            edges=edges_pdf,
        )

    def test_weight_totals_equal_bias_totals(self, groups, edges_pdf):
        assert groups.w.sum() == edges_pdf.bias.sum()
        per_src = groups.groupby("src").w.sum()
        truth = edges_pdf.groupby("src").bias.sum()
        pd.testing.assert_series_equal(per_src, truth, check_dtype=False, check_names=False)


class TestInterGroupProbs:
    def test_oracle(self, groups, edges_pdf):
        K = _k_of(edges_pdf)
        assert_equivalent(
            groups[["src", "k", "p"]],
            f"""
            WITH gw AS (
              SELECT e.src AS src, t.k AS k,
                     SUM(CAST(1 << t.k AS BIGINT)) AS w
              FROM edges e, (SELECT UNNEST(range(0, {K})) AS k) t
              WHERE (e.bias >> t.k) & 1 = 1
              GROUP BY e.src, t.k
            )
            SELECT src, k, w / SUM(w) OVER (PARTITION BY src) AS p FROM gw
            """,
            edges=edges_pdf,
        )


class TestClassifyGroups:
    def test_oracle(self, groups, edges_pdf):
        assert_equivalent(
            groups[["src", "k", "cnt", "d", "kind"]],
            CLASSIFY_SQL.format(K=_k_of(edges_pdf)),
            edges=edges_pdf,
        )

    def test_matches_bingo_store_census(self, stores, edges_pdf):
        # The relational Eq. 9 census equals the group kinds of the
        # Spark partitions and of one local store over the same edges.
        sql = f"SELECT kind, COUNT(*) AS n FROM ({CLASSIFY_SQL}) GROUP BY kind"
        with duckdb.connect() as con:
            con.register("edges", edges_pdf)
            rows = con.execute(sql.format(K=_k_of(edges_pdf))).fetchall()
        want = Counter(dict(rows))
        assert set(want) == {"dense", "one_element", "sparse", "regular"}
        spark_hist = sum((st.group_kind_histogram() for st in stores), Counter())
        assert spark_hist == want
        assert BingoStore(edges_pdf).group_kind_histogram() == want
