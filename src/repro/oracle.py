"""DuckDB correctness oracle.

``assert_equivalent(df, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts the sorted rows match ``df``. This catches wrong
results from a rewritten plan, a custom operator or an incrementally
kept structure — "it ran" is not "it is correct".

``df`` and ``tables`` may be Spark or pandas DataFrames; Spark frames
are collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame, floats: set) -> pd.DataFrame:
    # Canonical column order first, so two results that differ only in
    # projection order compare equal. Rows sort on the exact columns
    # before the float ones: a float's last bits depend on summation
    # order, which may flip a rounded sort key but not a tolerance check.
    pdf = pdf[sorted(pdf.columns)]
    keys = [c for c in pdf.columns if c not in floats] + sorted(floats)
    return pdf.sort_values(keys).reset_index(drop=True)


def assert_equivalent(df, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = df.toPandas() if isinstance(df, DataFrame) else df
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    floats = {c for f in (got, expected) for c in f.select_dtypes("float").columns}
    pd.testing.assert_frame_equal(
        _canon(got, floats), _canon(expected, floats), check_dtype=False
    )
