"""Arbitrary-depth hierarchy + dirty-scope incremental enrichment
(VERDICT r4 missing #1/#2, next #1/#3/#6).

A 3-deep URL fixture pins: all path-segment ancestors, parent links per
level, the deepest-first rollup order, the project tree-reduce, and the
incremental invariants (modify one partition -> only its summaries and
its ancestor rollup chain recompute; outputs equal a full rebuild
byte-identically)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from clangd_to_neo4j_ray.pipelines.enrich import (
    incremental_enrich,
    project_summary,
    rollup_hierarchy,
)
from clangd_to_neo4j_ray.stages.hierarchy import page_ancestry, page_parent_id


def _pages_table(n: int = 48) -> pa.Table:
    # 2 domains x folders a{0,1}/b{0,2} -> 3-deep paths, plus a few pages
    # directly at the domain root (depth-0 parents)
    urls, texts = [], []
    for i in range(n):
        dom = f"d{i % 2}.example.com"
        if i % 8 == 0:
            urls.append(f"https://{dom}/p{i:04d}")
        else:
            urls.append(f"https://{dom}/a{i % 2}/b{i % 3}/p{i:04d}")
        texts.append(f"text of page {i} " + "tok " * (i % 5))
    return pa.table(
        {"url": pa.array(urls, type=pa.string()),
         "text": pa.array(texts, type=pa.string())}
    )


def test_page_ancestry_all_prefixes():
    dom, prefixes = page_ancestry("https://d.com/a/b/c/p1")
    assert dom == "d.com"
    assert prefixes == ["d.com/a", "d.com/a/b", "d.com/a/b/c"]
    assert page_parent_id("https://d.com/a/b/c/p1") == "folder:d.com/a/b/c"
    assert page_parent_id("https://d.com/p1") == "domain:d.com"


def _built_graph(table: pa.Table, out_dir: str):
    """(nodes, edges) DataFrames of ``build_graph`` over ``table``'s pages."""
    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
    from clangd_to_neo4j_ray.sources.fixtures import make_entities

    pages = os.path.join(out_dir, "pages")
    _write_partitions(table, pages, 2)
    graph = os.path.join(out_dir, "graph")
    build_graph(pages, make_entities(), graph, write_neo4j_csv=False)
    return (
        pq.read_table(os.path.join(graph, "nodes")).to_pandas(),
        pq.read_table(os.path.join(graph, "edges")).to_pandas(),
    )


def test_hierarchy_nodes_edges_three_deep(tmp_path):
    nodes, edges = _built_graph(_pages_table(), str(tmp_path / "deep"))

    folders = set(nodes[nodes["label"] == "FOLDER"]["name"])
    # every prefix level exists (a-level AND a/b-level)
    assert "d0.example.com/a0" in folders
    assert "d0.example.com/a0/b0" in folders
    assert all(f.count("/") in (1, 2) for f in folders)

    es = set(zip(edges["src"], edges["dst"]))
    # parent links per level: project->domain->folder->folder->page
    assert ("project:root", "domain:d0.example.com") in es
    assert ("domain:d0.example.com", "folder:d0.example.com/a0") in es
    assert (
        "folder:d0.example.com/a0",
        "folder:d0.example.com/a0/b0",
    ) in es
    deep = [
        d for s, d in es if s == "folder:d0.example.com/a0/b0"
    ]
    assert deep and all(x.startswith("page:") for x in deep)
    # root-level pages hang off the domain directly
    assert ("domain:d0.example.com", "page:https://d0.example.com/p0000") in es
    # folder chain edges are distinct (no per-page duplication)
    anc = edges[edges["dst"].str.startswith("folder:")]
    assert not anc.duplicated(subset=["src", "dst"]).any()
    # flat urls (single path segment) produce no folders at all
    flat = pa.table(
        {"url": pa.array(["https://x.com/p1", "https://x.com/p2"], type=pa.string()),
         "text": pa.array(["one", "two"], type=pa.string())}
    )
    flat_nodes, _ = _built_graph(flat, str(tmp_path / "flat"))
    assert (flat_nodes["label"] == "FOLDER").sum() == 0
    assert (flat_nodes["label"] == "PAGE").sum() == 2


def _write_partitions(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n = len(table)
    step = -(-n // n_files)
    for k in range(n_files):
        pq.write_table(
            table.slice(k * step, step), os.path.join(out_dir, f"part{k}.parquet")
        )


def test_rollup_hierarchy_depth_order_and_project(tmp_path):
    from clangd_to_neo4j_ray.pipelines.enrich import enrich_pages

    pages = ray.data.from_arrow(_pages_table())
    ps = enrich_pages(pages).materialize()
    levels = rollup_hierarchy(ps)
    # deepest-first: level 0 = depth-2 folders, then depth-1, then domains
    depths = [lvl.to_pandas()["depth"].unique().tolist() for lvl in levels]
    assert depths == [[2], [1], [0]]
    l2, l1, l0 = (lvl.to_pandas() for lvl in levels)
    # parent links per level
    assert set(l2["parent"]) <= set("folder:" + l1["name"])
    assert set(l1["parent"]) <= set("domain:" + l0["name"])
    assert set(l0["parent"]) == {"project:root"}
    # a depth-1 folder's children = its direct pages + its sub-folder count
    row = l1[l1["name"] == "d0.example.com/a0"].iloc[0]
    assert row["n_children"] == 3  # b0, b1, b2 rollups (no direct pages)
    # project summary identical whether tree-reduced with tiny fan-in or flat
    doms = levels[-1].map_batches(
        lambda t: pa.table({"domain": t["name"], "summary": t["summary"]}),
        batch_format="pyarrow",
    )
    flat = project_summary(doms)
    treed = project_summary(doms, fan_in=1)
    assert flat["node_id"] == treed["node_id"] == "project:root"
    # fan_in=1 forces intermediate levels; result differs in nesting but is
    # deterministic — re-running gives the same bytes
    assert treed == project_summary(doms, fan_in=1)


def test_incremental_enrich_dirty_scope(tmp_path):
    pages = _pages_table()
    in_dir, work_a, work_b = (
        str(tmp_path / "pages"), str(tmp_path / "work_a"), str(tmp_path / "work_b")
    )
    _write_partitions(pages, in_dir, 6)

    r1 = incremental_enrich(in_dir, work_a)
    assert sorted(r1["stage1"]["computed"]) == [f"part{k}" for k in range(6)]
    assert r1["rollups"]["cached"] == []

    # no-op rerun: nothing recomputed anywhere
    r2 = incremental_enrich(in_dir, work_a)
    assert r2["stage1"]["computed"] == []
    assert r2["rollups"]["recomputed"] == []
    assert r2["project"] == r1["project"]

    # modify ONE page in ONE partition
    part0 = pq.read_table(os.path.join(in_dir, "part0.parquet"))
    texts = part0["text"].to_pylist()
    texts[1] = texts[1] + " CHANGED"
    urls = part0["url"].to_pylist()
    pq.write_table(
        pa.table({"url": pa.array(urls, type=pa.string()),
                  "text": pa.array(texts, type=pa.string())}),
        os.path.join(in_dir, "part0.parquet"),
    )
    changed_url = urls[1]
    dom, prefixes = page_ancestry(changed_url)
    expected_chain = sorted(
        [f"folder:{p}" for p in prefixes] + [f"domain:{dom}"]
    )

    r3 = incremental_enrich(in_dir, work_a)
    # only the touched partition re-summarizes
    assert r3["stage1"]["computed"] == ["part0"]
    assert sorted(r3["stage1"]["skipped"]) == [f"part{k}" for k in range(1, 6)]
    # only the changed page's ancestor chain re-rolls
    assert r3["rollups"]["recomputed"] == expected_chain
    assert len(r3["rollups"]["cached"]) > 0

    # byte-identical to a from-scratch rebuild on the modified input
    rf = incremental_enrich(in_dir, work_b)
    assert r3["project"] == rf["project"]
    for la, lb in zip(r3["levels"], rf["levels"]):
        a = la.to_pandas().drop(columns=["recomputed", "embedding"])
        b = lb.to_pandas().drop(columns=["recomputed", "embedding"])
        a = a.sort_values("node_id").reset_index(drop=True)
        b = b.sort_values("node_id").reset_index(drop=True)
        assert a.equals(b)
        ea = {r["node_id"]: list(r["embedding"]) for r in la.take_all()}
        eb = {r["node_id"]: list(r["embedding"]) for r in lb.take_all()}
        assert ea == eb
