"""Shared test helpers: DuckDB oracle comparison (result rows checked against
the same query run in DuckDB), a counter of Ray Data executions and the
link kernel's rows beside its spec's."""

from __future__ import annotations

from collections import Counter

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


def link_kernel_rows(lut: dict, batch) -> Counter:
    """The multiset of ``LinkScan(lut)(batch)`` rows (``TAG_SCHEMA`` order)."""
    from clangd_to_neo4j_ray.stages.linking import TAG_SCHEMA, LinkScan

    out = LinkScan(lut)(batch)
    assert out.schema == TAG_SCHEMA
    return Counter(zip(*(out[c].to_pylist() for c in TAG_SCHEMA.names)))


def link_spec_rows(lut: dict, urls: list, texts: list) -> Counter:
    """The same rows from the spec, ``EntityLinker(lut).link_text`` one
    document at a time: a triple row per candidate triple (its evidence
    offsets are not in the tagged union), a mention row per mention and a
    page row per document."""
    from clangd_to_neo4j_ray.stages.linking import EntityLinker

    linker = EntityLinker(lut)
    rows: Counter = Counter()
    for url, text in zip(urls, texts):
        mentions, triples = linker.link_text(url, text)
        for subj, pred, obj, evidence_url, _start, _end in triples:
            rows[("triple", subj, pred, obj, evidence_url) + (None,) * 6] += 1
        rows.update(("mention",) + (None,) * 4 + m for m in mentions)
        rows[("page",) + (None,) * 4 + (url,) + (None,) * 5] += 1
    return rows
