"""The flagship's graph equals the plain-Python graph oracle exactly: the
``nodes/`` and ``edges/`` that ``build_graph`` and ``incremental_build``
publish are ``oracle.oracle_graph``'s node and edge multisets (so a
duplicate row fails too), on a corpus with three-deep folders, pages at a
domain root and a page that mentions no entity."""

from __future__ import annotations

import collections
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clangd_to_neo4j_ray.oracle import oracle_graph
from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
from clangd_to_neo4j_ray.pipelines.incremental import incremental_build
from clangd_to_neo4j_ray.sources.fixtures import generate_pages, write_pages_fixture


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """120 F1 pages moved under three folder levels (every fifth page stays
    at its domain root) plus one page with no mention; 4 partitions."""
    fx = generate_pages(120)
    urls = []
    for i, url in enumerate(fx.pages["url"].to_pylist()):
        host, page = url.rsplit("/", 1)
        urls.append(url if i % 5 == 0 else f"{host}/a{i % 2}/b{i % 3}/c{i % 2}/{page}")
    urls[-1] = "https://d00.example.com/a0/b0/c0/silent"
    pages = fx.pages.set_column(
        fx.pages.column_names.index("url"), "url", pa.array(urls, type=pa.string())
    )
    silent = b"<html><body><p>Nothing to link here.</p></body></html>"
    htmls = pages["html"].to_pylist()
    htmls[-1] = silent
    fx.pages = pages.set_column(
        pages.column_names.index("html"), "html", pa.array(htmls, type=pages["html"].type)
    )
    path = str(tmp_path_factory.mktemp("oracle_pages"))
    write_pages_fixture(fx, path, num_files=4)
    nodes, edges = oracle_graph(fx.pages.select(["url", "html"]).to_pylist(), fx.entities)
    # the corpus exercises what the docstring says
    assert ("folder:d00.example.com/a0/b0/c0", "FOLDER", "d00.example.com/a0/b0/c0") in nodes
    silent_id = "page:https://d00.example.com/a0/b0/c0/silent"
    assert (silent_id, "PAGE", silent_id[len("page:"):]) in nodes
    assert not [e for e in edges if e[0] == silent_id]
    assert sum(1 for e in edges if e[1] == "MENTIONS") and len(edges) > len(nodes)
    return fx, path, nodes, edges


def _multiset(out_dir: str, table: str) -> collections.Counter:
    tbl = pq.read_table(os.path.join(out_dir, table))
    return collections.Counter(zip(*(tbl[c].to_pylist() for c in tbl.column_names)))


def test_build_graph_equals_graph_oracle(corpus, tmp_path):
    fx, path, nodes, edges = corpus
    out = str(tmp_path / "graph")
    build_graph(path, fx.entities, out)
    assert _multiset(out, "nodes") == nodes
    assert _multiset(out, "edges") == edges


def test_incremental_build_equals_graph_oracle(corpus, tmp_path):
    fx, path, nodes, edges = corpus
    out = str(tmp_path / "graph")
    incremental_build(path, fx.entities, str(tmp_path / "work"), out)
    assert _multiset(out, "nodes") == nodes
    assert _multiset(out, "edges") == edges
