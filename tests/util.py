"""Shared test helpers: DuckDB oracle comparison (result rows checked against
the same query run in DuckDB) and a counter of Ray Data executions."""

from __future__ import annotations

import duckdb
import pandas as pd

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def duckdb_con(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Sort columns by name, rows by all values — order-insensitive compare."""
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def assert_matches_oracle(ray_result, sql: str, sf_dir: str) -> None:
    con = duckdb_con(sf_dir)
    expected = con.sql(sql).df()
    con.close()
    got = normalize(to_pandas(ray_result))
    exp = normalize(expected)
    if len(got) == 0 and len(exp) == 0:
        return  # both empty: schema of an empty Ray result may be lost
    assert list(got.columns) == list(exp.columns), (
        f"columns differ: {list(got.columns)} vs {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"row counts differ: {len(got)} vs {len(exp)}"
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9)


def count_executions(monkeypatch, plans: list | None = None) -> list[str]:
    """The names of the Ray Data executions started from here on.  With
    ``plans``, each execution also appends its physical operators' names
    there, input first (a linear plan's chain)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    executions: list[str] = []
    execute = StreamingExecutor.execute

    def counted_execute(self, dag, *args, **kwargs):
        executions.append(dag.name)
        if plans is not None:
            chain, op = [], dag
            while op is not None:
                chain.insert(0, op.name)
                op = op.input_dependencies[0] if op.input_dependencies else None
            plans.append(chain)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted_execute)
    return executions
