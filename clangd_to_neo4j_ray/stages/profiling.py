"""Table profiling — the data-quality audit stage of a curation pipeline.

Per-column statistics over an arbitrary parquet table (run here against
``documents``): row/null counts, EXACT distinct cardinality, and
lexicographic min/max of the value domain.  The reference's counter
accumulation + YAML dump inspection surface (SURVEY §2 A3/K5 —
``clangd_indexing_log_parser.py`` summary counters) generalized to a
whole-table audit.

Scale shape: one streaming scan folds count/null/min/max partials
(O(columns) rows per batch); exact distinct ships 16-byte md5 prefixes —
not raw values — through the repo's bucketed ``distinct`` exchange
(``stages/shuffle.py``), so a wide text column costs the same exchange
bytes as an int column, and the count is still exact because the oracle
counts the identical ``md5(CAST(col AS VARCHAR))`` images.  The final
O(columns) join happens on the driver.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..functions.duck import sql_over

PROFILE_COLUMNS = ("doc_id", "text", "lang", "source", "n_chars")


def _stats_sql(cols: tuple[str, ...], table: str) -> str:
    parts = [
        f"""SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
        CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
        min(CAST({c} AS VARCHAR)) AS min_str,
        max(CAST({c} AS VARCHAR)) AS max_str FROM {table}"""
        for c in cols
    ]
    return "\nUNION ALL\n".join(parts)


def _hash_sql(cols: tuple[str, ...], table: str) -> str:
    parts = [
        f"""SELECT DISTINCT '{c}' AS col, md5(CAST({c} AS VARCHAR)) AS h
        FROM {table} WHERE {c} IS NOT NULL"""
        for c in cols
    ]
    return "\nUNION ALL\n".join(parts)


def profile_table(
    ds: ray.data.Dataset, cols: tuple[str, ...] = PROFILE_COLUMNS
) -> pa.Table:
    """Profile any Dataset's columns; returns the O(columns) audit table
    (col, n_rows, n_nulls, n_distinct, min_str, max_str)."""
    from .joins import collect
    from .shuffle import distinct, grouped_agg

    stats_q = _stats_sql(cols, "b")
    hash_q = _hash_sql(cols, "b")

    stats = collect(
        grouped_agg(
            ds.map_batches(
                lambda b: sql_over(stats_q, b=b), batch_format="pyarrow"
            ),
            ["col"],
            {
                "n_rows": ("n_rows", "sum"),
                "n_nulls": ("n_nulls", "sum"),
                "min_str": ("min_str", "min"),
                "max_str": ("max_str", "max"),
            },
        ),
        "column stats",
    )

    hashes = distinct(
        ds.map_batches(lambda b: sql_over(hash_q, b=b), batch_format="pyarrow"),
        ["col", "h"],
    )

    def count_partials(t: pa.Table) -> pa.Table:
        return sql_over(
            "SELECT col, CAST(count(*) AS BIGINT) AS n_distinct"
            " FROM b GROUP BY col",
            b=t,
        )

    nd = collect(
        grouped_agg(
            hashes.map_batches(count_partials, batch_format="pyarrow"),
            ["col"],
            {"n_distinct": ("n_distinct", "sum")},
        ),
        "distinct counts",
        schema=pa.schema([("col", pa.string()), ("n_distinct", pa.int64())]),
    )

    return sql_over(
        """SELECT s.col, s.n_rows, s.n_nulls,
             CAST(coalesce(d.n_distinct, 0) AS BIGINT) AS n_distinct,
             s.min_str, s.max_str
           FROM s LEFT JOIN d ON d.col = s.col""",
        s=stats,
        d=nd,
    )


def schema_profile(sf_dir: str) -> pa.Table:
    """The registered profiler run: audit every ``documents`` column.

    Output: (col, n_rows, n_nulls, n_distinct, min_str, max_str) —
    O(columns) rows, returned eagerly (registry contract for bounded
    driver-finished aggregates)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    return profile_table(ds)


ORACLE_SQL = {
    "schema_profile": "\nUNION ALL\n".join(
        f"""SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
        CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
        CAST(count(DISTINCT md5(CAST({c} AS VARCHAR))) AS BIGINT)
          AS n_distinct,
        min(CAST({c} AS VARCHAR)) AS min_str,
        max(CAST({c} AS VARCHAR)) AS max_str
        FROM documents"""
        for c in PROFILE_COLUMNS
    )
}
