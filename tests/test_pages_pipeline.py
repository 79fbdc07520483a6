"""Flagship pages-pipeline tests: byte-identical extract, mention spans,
triple P/R vs the planted set AND the independent single-process oracle,
graph materialization invariants."""

from __future__ import annotations

import pytest
import ray.data

from clangd_to_neo4j_ray.oracle import oracle_triples, precision_recall
from clangd_to_neo4j_ray.pipelines.build_graph import build_graph, build_graph_datasets
from clangd_to_neo4j_ray.sources.fixtures import (
    alias_lookup,
    generate_pages,
    write_pages_fixture,
)
from clangd_to_neo4j_ray.stages.extract import extract_stage
from clangd_to_neo4j_ray.stages.materialize import validate_graph


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    fx = generate_pages(300)
    out = tmp_path_factory.mktemp("pages")
    write_pages_fixture(fx, str(out), num_files=8)
    return fx, str(out)


def test_extract_byte_identical(fixture):
    """BASELINE.json input_hint per-row invariant."""
    fx, path = fixture
    pages = ray.data.read_parquet(path)
    got = {r["url"]: r["text"] for r in extract_stage(pages).take_all()}
    expected = dict(
        zip(fx.pages["url"].to_pylist(), fx.pages["text"].to_pylist())
    )
    assert got == expected  # byte-identical per url


def test_documents_adapter_routes_through_extract():
    """documents_as_pages output (no html column) must pass unchanged
    through the extract stage (ADVICE r1: the all-null html column crashed
    the documented smoke-run path)."""
    from clangd_to_neo4j_ray.sources.pages import documents_as_pages

    ds = documents_as_pages("/root/testdata/sf0.001")
    out = extract_stage(ds).take(5)
    assert all(r["text"] for r in out)
    assert all(r["url"].startswith("https://") for r in out)


def test_mention_spans_match_planted(fixture):
    fx, path = fixture
    from clangd_to_neo4j_ray.stages.linking import link_scan_stage, split_link_scan

    pages = ray.data.read_parquet(path)
    lut = alias_lookup(fx.entities)
    _, ds = split_link_scan(link_scan_stage(extract_stage(pages), ray.put(lut)))
    got = {
        (r["url"], r["entity_id"], r["surface"], r["start"], r["end"])
        for r in ds.take_all()
    }
    exp_tbl = fx.oracle_mentions
    expected = set(
        zip(
            exp_tbl["url"].to_pylist(),
            exp_tbl["entity_id"].to_pylist(),
            exp_tbl["surface"].to_pylist(),
            exp_tbl["start"].to_pylist(),
            exp_tbl["end"].to_pylist(),
        )
    )
    assert got == expected


def test_triple_pr_vs_planted_and_oracle(fixture):
    fx, path = fixture
    pages = ray.data.read_parquet(path)
    lut = alias_lookup(fx.entities)
    names = {e.entity_id: e.canonical_name for e in fx.entities}
    triples, _m, _n, _e = build_graph_datasets(pages, lut, names)
    rows = triples.take_all()
    got = {(r["subj"], r["pred"], r["obj"]) for r in rows}

    # vs generator-planted set
    p, r = precision_recall(got, fx.oracle_triples)
    assert p >= 0.95 and r >= 0.95, (p, r)

    # vs independent single-process oracle implementation
    page_rows = fx.pages.select(["url", "html"]).to_pylist()
    expected = oracle_triples(page_rows, fx.entities)
    p2, r2 = precision_recall(got, set(expected))
    assert p2 >= 0.95 and r2 >= 0.95, (p2, r2)

    # deterministic min-url evidence witness (D5 analog)
    ev = {(r["subj"], r["pred"], r["obj"]): r["evidence_url"] for r in rows}
    for t, url in expected.items():
        if t in ev:
            assert ev[t] == url


def test_build_graph_materialize(fixture, tmp_path):
    fx, path = fixture
    out = str(tmp_path / "graph")
    manifest = build_graph(path, fx.entities, out)
    assert manifest["stages"]["write_nodes"]["rows"] > 0
    assert manifest["stages"]["write_edges"]["rows"] > 0

    v = validate_graph(out)
    assert v["duplicate_node_ids"] == 0
    assert v["dangling_edges"] == 0
    # PROJECT node contains everything; only it may be orphan-free root —
    # every node participates in some edge by construction
    assert v["orphan_nodes"] == 0

    import os

    csvs = os.listdir(os.path.join(out, "neo4j"))
    assert any(c.startswith("nodes_PAGE") for c in csvs)
    assert any(c.startswith("edges_CONTAINS") for c in csvs)
    # per-label dir: header.csv + headerless sorted part files
    page_dir = os.path.join(out, "neo4j", "nodes_PAGE")
    with open(os.path.join(page_dir, "header.csv")) as f:
        header = f.readline()
    assert ":ID" in header and ":LABEL" in header
    parts = [p for p in os.listdir(page_dir) if p.startswith("part-")]
    assert parts


def test_build_graph_rerun_same_outdir(fixture, tmp_path):
    """Re-running into the SAME --out must not accumulate stale part files
    (ADVICE r1: write_parquet appends by default)."""
    import pyarrow.parquet as pq

    fx, path = fixture
    out = str(tmp_path / "graph")
    m1 = build_graph(path, fx.entities, out)
    n_triples = pq.read_table(f"{out}/triples").num_rows
    m2 = build_graph(path, fx.entities, out)
    assert n_triples > 0
    assert pq.read_table(f"{out}/triples").num_rows == n_triples
    assert (
        m2["stages"]["write_nodes"]["rows"]
        == m1["stages"]["write_nodes"]["rows"]
    )
    assert (
        m2["stages"]["write_edges"]["rows"]
        == m1["stages"]["write_edges"]["rows"]
    )
    v = validate_graph(out)
    assert v["duplicate_node_ids"] == 0 and v["dangling_edges"] == 0


def test_write_stage_manifest_schema(fixture, tmp_path):
    """Every write stage records the same structured fields, summed from
    the sink's own manifest rows: rows equals the Parquet row count and the
    part counts equal the files published.  The graph exchange records its
    bucket count and its partition count, at most one per bucket."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq

    fx, path = fixture
    out = str(tmp_path / "graph")
    manifest = build_graph(path, fx.entities, out)
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f) == manifest
    stages = manifest["stages"]
    assert set(stages) == {"write_nodes", "write_edges", "write_triples"}
    n_csv = 0
    for stage, table in (("write_nodes", "nodes"), ("write_edges", "edges"),
                         ("write_triples", "triples")):
        rec = stages[stage]
        assert set(rec) == {"rows", "parquet_parts", "csv_parts", "bytes", "wall_sec"}
        files = glob.glob(os.path.join(out, table, "*.parquet"))
        assert rec["rows"] == pq.read_table(os.path.join(out, table)).num_rows > 0
        assert rec["parquet_parts"] == len(files)
        assert rec["bytes"] >= sum(os.path.getsize(f) for f in files)
        assert isinstance(rec["wall_sec"], float)
        n_csv += rec["csv_parts"]
    assert stages["write_triples"]["csv_parts"] == 0
    assert n_csv == len(manifest["outputs"]["neo4j_csv"])
    layout = manifest["exchanges"]["graph_exchange"]
    assert set(layout) == {"buckets", "partitions"}
    assert 1 <= layout["partitions"] <= layout["buckets"]


def test_sink_csv_equals_parquet_per_label_and_type(fixture, tmp_path):
    """Parquet and Neo4j CSV come from the same batches: for every label
    and type, the CSV part rows equal the Parquet rows as a multiset, and
    every CSV part is sorted by the partition's sort columns."""
    import collections
    import csv
    import os

    import pyarrow.parquet as pq

    fx, path = fixture
    out = str(tmp_path / "graph")
    written = build_graph(path, fx.entities, out)["outputs"]["neo4j_csv"]
    for table, key, sort_cols in (("nodes", "label", ["node_id"]),
                                  ("edges", "type", ["src", "dst"])):
        tbl = pq.read_table(os.path.join(out, table))
        cols = tbl.column_names
        want = collections.defaultdict(collections.Counter)
        for row in zip(*(tbl[c].to_pylist() for c in cols)):
            want[row[cols.index(key)]][row] += 1
        got = collections.defaultdict(collections.Counter)
        for part in (p for p in written if f"/{table}_" in p):
            with open(part, newline="") as f:
                rows = [tuple(r) for r in csv.reader(f)]
            order = [tuple(r[cols.index(c)] for c in sort_cols) for r in rows]
            assert order == sorted(order), part
            for row in rows:
                got[row[cols.index(key)]][row] += 1
        assert set(got) == set(want) and len(want) > 1, table
        for k in want:
            assert got[k] == want[k], (table, k)


def test_sink_publishes_readable_dirs_without_edges_or_mentions(tmp_path):
    """A graph with zero edges, and a corpus where no page mentions an
    entity, still publish readable, typed nodes/ and edges/ directories;
    an empty triples/ reads with the canonical triple schema."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.canonicalize import TRIPLE_SCHEMA
    from clangd_to_neo4j_ray.stages.materialize import write_graph

    node_schema = pa.schema([(c, pa.string()) for c in ("node_id", "label", "name")])
    edge_schema = pa.schema([(c, pa.string()) for c in ("src", "type", "dst")])
    nodes = ray.data.from_arrow(
        pa.table({"node_id": ["a", "b"], "label": ["PAGE", "SITE"], "name": ["1", "2"]})
    )
    out = str(tmp_path / "no_edges")
    m = write_graph(nodes, ray.data.from_arrow(edge_schema.empty_table()), out)
    assert m["stages"]["write_nodes"]["rows"] == 2
    assert m["stages"]["write_edges"]["rows"] == 0
    assert pq.read_table(os.path.join(out, "nodes")).num_rows == 2
    edges = pq.read_table(os.path.join(out, "edges"))
    assert edges.num_rows == 0 and edges.schema.remove_metadata() == edge_schema

    fx = generate_pages(20)
    silent = "<html><body><p>Nothing to link here.</p></body></html>"
    fx.pages = fx.pages.set_column(
        fx.pages.column_names.index("html"), "html",
        pa.array([silent.encode()] * fx.pages.num_rows, type=fx.pages["html"].type),
    )
    pages = str(tmp_path / "silent_pages")
    write_pages_fixture(fx, pages, num_files=2)
    out = str(tmp_path / "no_mentions")
    m = build_graph(pages, fx.entities, out)
    assert m["stages"]["write_triples"]["rows"] == 0
    for table, schema in (("nodes", node_schema), ("edges", edge_schema)):
        tbl = pq.read_table(os.path.join(out, table))
        assert tbl.num_rows == m["stages"][f"write_{table}"]["rows"] > 0
        assert tbl.schema.remove_metadata() == schema
    triples = pq.read_table(os.path.join(out, "triples"))
    assert triples.num_rows == 0 and triples.schema.remove_metadata() == TRIPLE_SCHEMA
    assert validate_graph(out)["dangling_edges"] == 0


def test_sink_retry_rewrites_its_own_parts(tmp_path):
    """A sink task that Ray retries — a new ``TaskContext`` with the same
    task index, the same batches, on a fresh copy of the writer or on the
    same one — rewrites its first attempt's Parquet and CSV parts instead
    of adding a second set, and leaves no temporary file; another task
    index never reuses a name."""
    import os
    import pickle

    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data._internal.execution.interfaces import TaskContext

    from clangd_to_neo4j_ray.stages.materialize import NODE_CSV, _TableSink

    batches = [
        pa.table({"node_id": ["c", "a", "b"], "label": ["SITE", "PAGE", "PAGE"],
                  "name": ["3", "1", "2"]}),
        pa.table({"node_id": ["d"], "label": ["PAGE"], "name": ["4"]}),
    ]
    parquet_dir, csv_dir = str(tmp_path / "nodes"), str(tmp_path / "neo4j")
    os.makedirs(parquet_dir)
    os.makedirs(csv_dir)
    sink = _TableSink(parquet_dir, (csv_dir, NODE_CSV))

    def attempt(writer, task_idx):
        TaskContext.set_current(TaskContext(task_idx=task_idx, op_name="sink"))
        try:
            runs = [writer(b) for b in batches]
        finally:
            TaskContext.reset_current()
        return sorted(p for r in runs for p in r["path"].to_pylist())

    def on_disk():
        return sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(tmp_path)
            for f in files
            if f != "header.csv"
        )

    first = attempt(sink, 3)
    assert attempt(pickle.loads(pickle.dumps(sink)), 3) == first
    assert attempt(sink, 3) == first
    assert on_disk() == first
    assert len([p for p in first if p.endswith(".parquet")]) == len(batches)
    assert pq.read_table(parquet_dir).num_rows == sum(b.num_rows for b in batches)
    other = attempt(sink, 4)
    assert not set(other) & set(first)
    assert on_disk() == sorted(first + other)


def test_csv_sink_streams_multipart(tmp_path):
    """The bulk-CSV sink must never concatenate a label partition: a
    many-block hot label comes out as MULTIPLE sorted part files whose
    union is exactly the input; every partition has a header and every
    part file is internally sorted."""
    import os

    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.materialize import write_graph

    n = 5000
    labels = ["PAGE"] * (n - 5) + ["SITE"] * 5
    nodes = ray.data.from_arrow(
        pa.table(
            {
                "node_id": [f"n{i:05d}" for i in range(n)],
                "label": labels,
                "name": [f"name{i}" for i in range(n)],
            }
        )
    ).repartition(16)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": [f"n{i:05d}" for i in range(n - 1)],
                "type": ["LINKS"] * (n - 1),
                "dst": [f"n{i + 1:05d}" for i in range(n - 1)],
            }
        )
    ).repartition(16)
    written = write_graph(nodes, edges, str(tmp_path))["outputs"]["neo4j_csv"]

    def rows(part_dir):
        out = []
        for p in written:
            if f"/{part_dir}/" in p:
                with open(p) as f:
                    out += [line.rstrip("\n").replace('"', "").split(",")
                            for line in f if line.strip()]
        return out

    page_parts = [p for p in written if "/nodes_PAGE/" in p]
    assert len(page_parts) > 1, "hot label must stream as multiple parts"
    assert sorted(r[0] for r in rows("nodes_PAGE")) == [
        f"n{i:05d}" for i in range(n - 5)
    ]
    assert sorted(rows("nodes_SITE")) == [
        [f"n{i:05d}", "SITE", f"name{i}"] for i in range(n - 5, n)
    ]
    assert sorted(rows("edges_LINKS")) == [
        [f"n{i:05d}", "LINKS", f"n{i + 1:05d}"] for i in range(n - 1)
    ]
    # every part is internally sorted (per-batch sort in the writer)
    for p in written:
        with open(p) as f:
            lines = f.readlines()
        assert lines == sorted(lines), p
    part_dirs = {os.path.dirname(p) for p in written}
    assert {os.path.basename(d) for d in part_dirs} == {
        "nodes_PAGE", "nodes_SITE", "edges_LINKS"
    }
    for d in part_dirs:
        assert os.path.isfile(os.path.join(d, "header.csv")), d


def test_csv_sink_emits_schema_and_import_artifacts(tmp_path):
    """VERDICT r2 #5: the bulk-CSV sink must complete the offline-import
    story — schema.cypher lists a uniqueness constraint and a vector index
    for EVERY node label written (neo4j_manager.py:45-54, 224-239 analog),
    and import.sh names every node/edge partition directory."""
    import os

    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.materialize import write_graph

    nodes = ray.data.from_arrow(
        pa.table(
            {
                "node_id": ["a", "b", "c", "d"],
                "label": ["PAGE", "SITE", "PAGE", "ODD/LBL"],
                "name": ["1", "2", "3", "4"],
            }
        )
    )
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": ["a", "b"],
                "type": ["LINKS", "MENTIONS"],
                "dst": ["b", "c"],
            }
        )
    )
    write_graph(nodes, edges, str(tmp_path))
    d = str(tmp_path / "neo4j")
    schema = open(os.path.join(d, "schema.cypher")).read()
    for label in ("PAGE", "SITE", "ODD/LBL"):
        assert f"FOR (n:`{label}`) REQUIRE n.node_id IS UNIQUE" in schema
        assert f"FOR (n:`{label}`) ON (n.summaryEmbedding)" in schema
    assert "vector.similarity_function`: 'cosine'" in schema
    sh = open(os.path.join(d, "import.sh")).read()
    assert "neo4j-admin database import full" in sh
    for part in ("nodes_PAGE", "nodes_SITE", "nodes_ODD%2FLBL",
                 "edges_LINKS", "edges_MENTIONS"):
        assert part in sh, part
        assert os.path.isdir(os.path.join(d, part))
    assert os.access(os.path.join(d, "import.sh"), os.X_OK)


def test_layer_views_equal_the_build(fixture, tmp_path):
    """The layer-by-layer views of the build's one exchange and sink —
    ``canonicalize_triples``, ``graph_nodes_edges`` and ``write_graph`` over
    ``split_link_scan``'s tables — give the graph ``build_graph`` writes."""
    import collections
    import os

    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.pipelines.build_graph import graph_nodes_edges
    from clangd_to_neo4j_ray.stages.canonicalize import canonicalize_triples
    from clangd_to_neo4j_ray.stages.linking import link_scan_stage, split_link_scan
    from clangd_to_neo4j_ray.stages.materialize import write_graph

    def rows(dicts):
        return collections.Counter(tuple(sorted(d.items())) for d in dicts)

    fx, path = fixture
    pages = ray.data.read_parquet(path)
    tagged = link_scan_stage(extract_stage(pages), ray.put(alias_lookup(fx.entities)))
    candidates, mentions = split_link_scan(tagged.materialize())
    triples = canonicalize_triples(candidates).materialize()
    names = {e.entity_id: e.canonical_name for e in fx.entities}
    nodes, edges = graph_nodes_edges(pages, mentions, triples, names)
    views, built = str(tmp_path / "views"), str(tmp_path / "built")
    write_graph(nodes, edges, views, write_neo4j_csv=False)
    build_graph(path, fx.entities, built, write_neo4j_csv=False)
    want = pq.read_table(os.path.join(built, "triples")).to_pylist()
    assert want and rows(triples.take_all()) == rows(want)
    for table in ("nodes", "edges"):
        got = pq.read_table(os.path.join(views, table)).to_pylist()
        assert rows(got) == rows(pq.read_table(os.path.join(built, table)).to_pylist()), table
