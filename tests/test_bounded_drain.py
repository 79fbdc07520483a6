"""The one bounded Dataset-to-driver drain (``joins.drain`` / ``joins.collect``)
and the sites that moved onto it: the caps hold, past them a site either
falls back to its distributed plan or raises, a materialized input under
the byte cap drains on the driver with no execution and the same rows as
the streaming path, and driver reads of the embeddings file push their
``vec_id`` predicate down."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from clangd_to_neo4j_ray.pipelines import docs_kg
from clangd_to_neo4j_ray.queries import ORACLE
from clangd_to_neo4j_ray.stages import joins, relational, similarity, text

from .util import assert_matches_oracle, count_executions

KEYS = pa.schema([("k", pa.int64())])


def _blocks() -> ray.data.Dataset:
    """Three blocks of 2 rows each plus one 0-row block."""
    return ray.data.from_arrow(
        [pa.table({"k": [2 * i, 2 * i + 1]}) for i in range(3)]
        + [KEYS.empty_table()]
    )


def test_drain_returns_one_table_under_the_caps():
    out = joins.drain(_blocks(), lambda t: t.filter(pa.compute.greater(t["k"], 1)))
    assert sorted(out["k"].to_pylist()) == [2, 3, 4, 5]
    assert joins.drain(_blocks(), max_rows=6).num_rows == 6


def test_drain_aborts_past_max_rows_or_bytes(monkeypatch):
    assert joins.drain(_blocks(), max_rows=5) is None
    assert joins.drain(_blocks(), max_rows=0) is None
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 8 * 6 - 1)
    assert joins.drain(_blocks()) is None
    with pytest.raises(ValueError, match="key table"):
        joins.collect(_blocks(), "key table")


def test_drain_of_no_rows_is_typed_by_its_schema():
    empty = joins.drain(_blocks(), lambda t: t.slice(0, 0), schema=KEYS)
    assert empty.schema == KEYS and empty.num_rows == 0
    assert joins.collect(_blocks(), "keys", schema=KEYS).schema == KEYS


def _mixed_blocks() -> ray.data.Dataset:
    """A materialized input of an Arrow block, a 0-row block and a pandas
    block."""
    return (
        ray.data.from_arrow([pa.table({"k": [0, 1]}), KEYS.empty_table()])
        .union(ray.data.from_pandas(pd.DataFrame({"k": [2, 3, 4]})))
        .materialize()
    )


def _rows(t: pa.Table) -> list:
    return sorted(t.to_pylist(), key=lambda r: sorted(r.items()))


def test_materialized_drain_reads_blocks_on_the_driver(monkeypatch):
    """Over a materialized input under the byte cap the drain runs no
    execution and returns what the streaming path over a lazy view of the
    same blocks returns, with and without ``fn``."""
    ds = _mixed_blocks()
    lazy = ds.map_batches(lambda t: t, batch_format="pyarrow")
    executions = count_executions(monkeypatch)
    for fn in (None, lambda t: pa.table({"k2": pc.multiply(t["k"], 2)})):
        executions.clear()
        got = joins.drain(ds, fn)
        assert executions == []
        want = joins.drain(lazy, fn)
        assert len(executions) == 1
        assert got.schema.remove_metadata() == want.schema.remove_metadata()
        assert _rows(got) == _rows(want) and got.num_rows == 5


def test_drain_past_the_byte_cap_streams_and_keeps_its_caps(monkeypatch):
    """A materialized input whose block metadata passes ``BROADCAST_BYTES``
    is mapped and streamed in one execution; the row and byte caps on the
    output still return ``None`` (``collect`` raises) as before."""
    ds = _mixed_blocks()
    executions = count_executions(monkeypatch)
    monkeypatch.setattr(joins, "BROADCAST_BYTES", ds.size_bytes() - 1)
    for kw, rows in (({}, 5), ({"max_rows": 4}, None)):
        executions.clear()
        out = joins.drain(ds, lambda t: t, **kw)
        assert len(executions) == 1
        assert (out.num_rows if out is not None else None) == rows
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 8 * 5 - 1)
    assert joins.drain(ds, lambda t: t) is None
    with pytest.raises(ValueError, match="key table"):
        joins.collect(ds, "key table", lambda t: t)


@pytest.mark.parametrize(
    "name,query",
    [
        ("tf-idf df table", text.tfidf_top_terms),
        ("unigram table", text.bigram_collocations),
        ("entity df table", docs_kg.kg_cooccurrence),
    ],
)
def test_vocabulary_tables_raise_past_the_cap(name, query, monkeypatch, sf_dir):
    """The tf-idf df table, the bigram unigram table and the co-occurrence
    entity-df table are collected under ``BROADCAST_BYTES``; past it the
    query raises instead of collecting silently."""
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 1)
    with pytest.raises(ValueError, match=name):
        query(sf_dir)


def test_nation_order_stats_bucketed_path_matches_oracle(monkeypatch, sf_dir):
    """With a 0-byte cap the customer map does not drain, and the query
    runs the bucketed customer join instead — same rows as the oracle."""
    calls = []
    bucketed_join = relational.bucketed_join

    def counted(*args, **kwargs):
        calls.append(kwargs.get("right_on"))
        return bucketed_join(*args, **kwargs)

    monkeypatch.setattr(relational, "bucketed_join", counted)
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)
    out = relational.nation_order_stats(sf_dir)
    assert calls == ["c_custkey"]
    assert_matches_oracle(out, ORACLE["nation_order_stats"], sf_dir)


def test_embedding_reads_push_the_vec_id_predicate_down(monkeypatch, sf_dir):
    """The k-means init reads exactly KMEANS_K rows of the embeddings file
    and the query matrix exactly N_QUERIES rows."""
    reads = []
    read_table = pq.read_table

    def recorded(source, *args, **kwargs):
        t = read_table(source, *args, **kwargs)
        if str(source).endswith("embeddings.parquet"):
            reads.append(t.num_rows)
        return t

    monkeypatch.setattr(pq, "read_table", recorded)
    monkeypatch.setattr(similarity, "_KMEANS_FIT_CACHE", {})
    similarity._kmeans_fit(sf_dir)
    assert reads == [similarity.KMEANS_K]
    ids, _ = similarity._query_matrix(sf_dir)
    assert reads == [similarity.KMEANS_K, similarity.N_QUERIES]
    assert sorted(ids.tolist()) == list(range(similarity.N_QUERIES))
