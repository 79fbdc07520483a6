"""Parity tests: documents-KG pipeline vs DuckDB oracle (driver-style check)."""

from __future__ import annotations

import pytest

from clangd_to_neo4j_ray.pipelines import docs_kg

from .util import assert_matches_oracle

QUERIES = [
    ("kg_mentions", docs_kg.kg_mentions),
    ("kg_entity_nodes", docs_kg.kg_entity_nodes),
    ("kg_entity_salience", docs_kg.kg_entity_salience),
    ("kg_trending_entities", docs_kg.kg_trending_entities),
    ("kg_triples", docs_kg.kg_triples),
    ("kg_cooccurrence", docs_kg.kg_cooccurrence),
    ("kg_nodes", docs_kg.kg_nodes),
    ("kg_edges", docs_kg.kg_edges),
    ("kg_sources", docs_kg.kg_sources),
    ("kg_mention_windows", docs_kg.kg_mention_windows),
    ("kg_stats", docs_kg.kg_stats),
]


@pytest.mark.parametrize("name,fn", QUERIES, ids=[q[0] for q in QUERIES])
def test_docs_kg_query_matches_oracle(name, fn, sf_dir):
    assert_matches_oracle(fn(sf_dir), docs_kg.ORACLE_SQL[name], sf_dir)


def test_kg_cooccurrence_semantics(ray_session, sf_dir):
    """Canonical pair order (w1 < w2), support floor, and lift arithmetic
    recomputed from independent DuckDB doc-frequency counts."""
    from .util import duckdb_con, to_pandas

    df = to_pandas(docs_kg.kg_cooccurrence(sf_dir))
    assert (df["w1"] < df["w2"]).all()
    assert (df["n_docs"] >= docs_kg.COOC_MIN_DOCS).all()
    con = duckdb_con(sf_dir)
    names = ", ".join(f"'{w}'" for w in docs_kg.VOCAB_WORDS)
    nd = dict(
        con.sql(
            "SELECT tok, count(DISTINCT doc_id) FROM (SELECT doc_id,"
            " unnest(string_split(text, ' ')) AS tok FROM documents)"
            f" WHERE tok IN ({names}) GROUP BY tok"
        ).fetchall()
    )
    n_total = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    con.close()
    for _, r in df.head(25).iterrows():
        expect = (1000 * r["n_docs"] * n_total) // (nd[r["w1"]] * nd[r["w2"]])
        assert r["lift_permille"] == expect


def test_kg_cooccurrence_reads_the_documents_once(sf_dir, monkeypatch):
    """One documents scan feeds the pair counts, the entity doc
    frequencies and the document count through one exchange: building
    and consuming the query runs exactly one execution with a read in it
    (the one that materializes the exchange) and one exchange."""
    import ray.data

    from .util import count_executions

    exchanges: list[str] = []
    sort = ray.data.Dataset.sort

    def counted_sort(self, *args, **kwargs):
        exchanges.append("sort")
        return sort(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "sort", counted_sort)
    plans: list[list[str]] = []
    count_executions(monkeypatch, plans)
    docs_kg.kg_cooccurrence(sf_dir).take_all()
    reads = [p for p in plans if any(op.startswith("Read") for op in p)]
    assert len(reads) == 1, plans
    assert exchanges == ["sort"]
