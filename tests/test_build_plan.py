"""Shape of the pages->KG build plan: typed part files, one execution with
one exchange, the one-pass sink, the per-process linker memo of the
task-based link stages, and no schema drift in the build or the graph
queries over it; the graph queries' own plan: one streaming pass per
query under the broadcast threshold, one exchange per round past it."""

from __future__ import annotations

import glob
import logging
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
from clangd_to_neo4j_ray.sources.fixtures import (
    alias_lookup,
    generate_pages,
    write_pages_fixture,
)
from clangd_to_neo4j_ray.stages.linking import LinkScan, link_scan_stage
from clangd_to_neo4j_ray.stages.materialize import validate_graph

from .util import count_executions


def _flat_corpus_with_silent_page(tmp_path, n_pages: int = 120):
    """The F1 fixture (flat urls: no FOLDER nodes) plus one page whose text
    mentions no entity."""
    fx = generate_pages(n_pages)
    silent = fx.pages.slice(0, 1).to_pylist()[0]
    silent["url"] = "https://d00.example.com/silent"
    silent["html"] = b"<html><body><p>Nothing to link here.</p></body></html>"
    silent["text"] = "Nothing to link here."
    fx.pages = pa.concat_tables(
        [fx.pages, pa.Table.from_pylist([silent], schema=fx.pages.schema)]
    )
    path = str(tmp_path / "pages")
    write_pages_fixture(fx, path, num_files=6)
    return fx, path


def test_part_file_schemas_identical(tmp_path):
    fx, path = _flat_corpus_with_silent_page(tmp_path)
    out = str(tmp_path / "graph")
    build_graph(path, fx.entities, out)
    for table, cols in (("nodes", ["node_id", "label", "name"]),
                        ("edges", ["src", "type", "dst"])):
        files = sorted(glob.glob(os.path.join(out, table, "*.parquet")))
        assert files
        schemas = {pq.read_schema(f).remove_metadata() for f in files}
        expected = pa.schema([(c, pa.string()) for c in cols])
        assert schemas == {expected}, (table, schemas)
    nodes = pq.read_table(os.path.join(out, "nodes"))
    assert "FOLDER" not in set(nodes["label"].to_pylist())
    assert "page:https://d00.example.com/silent" in set(nodes["node_id"].to_pylist())
    v = validate_graph(out)
    assert v == {"duplicate_node_ids": 0, "dangling_edges": 0, "orphan_nodes": 0}


class _SchemaDriftLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.hits: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if "different schema" in msg:
            self.hits.append(msg)


def test_build_logs_no_schema_drift(tmp_path):
    """Exchange outputs lose their 0-row, column-less blocks before any map
    runs over them, so no operator of a build reports schema drift."""
    fx, path = _flat_corpus_with_silent_page(tmp_path)
    handler = _SchemaDriftLog()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        build_graph(path, fx.entities, str(tmp_path / "graph"))
    finally:
        logger.removeHandler(handler)
    assert handler.hits == []


def test_graph_queries_log_no_schema_drift(tmp_path):
    """BFS, components, PageRank and triangles over the built graph's
    relation edges, split into blocks one of which has 0 rows (as a
    per-part relation filter leaves them): the queries drop 0-row input
    blocks and their exchanges' 0-row, column-less output blocks before
    any map runs over them, so none reports schema drift.  The same four
    queries distributed over the same edges in 40 blocks and a 0-row one
    report none either: each round's exchange cuts a fixed number of
    bucket ranges, not one per input block, and its rows, 0-row ranges
    included, share one schema."""
    import pyarrow.compute as pc

    from clangd_to_neo4j_ray.sources.fixtures import PRED_PHRASES
    from clangd_to_neo4j_ray.stages.graph_algo import (
        connected_components_ds,
        pagerank_ds,
        reachable_from_ds,
        triangles_ds,
    )

    fx, path = _flat_corpus_with_silent_page(tmp_path)
    out = str(tmp_path / "graph")
    build_graph(path, fx.entities, out)
    edges = pq.read_table(os.path.join(out, "edges"))
    rel = edges.filter(pc.is_in(edges["type"], pa.array(sorted(PRED_PHRASES.values()))))
    third = -(-rel.num_rows // 3)
    blocks = [rel.slice(i, third) for i in range(0, rel.num_rows, third)]
    rel_ds = ray.data.from_arrow([blocks[0], rel.slice(0, 0), *blocks[1:]])
    assert rel.num_rows and rel_ds.num_blocks() == 4
    handler = _SchemaDriftLog()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        seeds = [rel["src"][0].as_py()]
        reached = reachable_from_ds(rel_ds, seeds).take_all()
        components = connected_components_ds(rel_ds).take_all()
        ranks = pagerank_ds(rel_ds).take_all()
        triangles = triangles_ds(rel_ds).take_all()
        cuts = [rel.num_rows * i // 40 for i in range(41)]
        parts = [rel.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
        many = ray.data.from_arrow([*parts[:20], rel.slice(0, 0), *parts[20:]])
        distributed = (
            reachable_from_ds(many, seeds, broadcast_threshold=0).take_all(),
            connected_components_ds(many, broadcast_threshold=0).take_all(),
            pagerank_ds(many, broadcast_threshold=0).take_all(),
            triangles_ds(many, broadcast_threshold=0).take_all(),
        )
    finally:
        logger.removeHandler(handler)
    assert handler.hits == []
    assert len(reached) > 1 and components and ranks and triangles
    assert many.num_blocks() == 41 and rel.num_rows >= 40
    for got, want in zip(distributed, (reached, components, ranks, triangles)):
        assert sorted(map(tuple, (r.values() for r in got))) == sorted(
            map(tuple, (r.values() for r in want))
        )


# A build's physical plan: the read fused with extract, the link scan, the
# partials and the bucket map, the one exchange, the reducer fused with
# the sink.
BUILD_PLAN = [
    "Input",
    "ReadSplit->MapBatches(extract_batch)->Project->MapBatches(_link_batch)"
    "->MapBatches(_graph_partials)->MapBatches(add_bucket)",
    "Sort",
    "MapBatches(per_bucket)->MapBatches(sink)",
]


def test_build_runs_one_execution_one_exchange_and_no_actor_pool(tmp_path, monkeypatch):
    """One build_graph (Neo4j CSV included) is ONE Ray Data execution with
    exactly one exchange — the graph exchange, whose reducers feed the
    sink — and starts no actor pool.  Its sink writes each row once and
    reads nothing back: no ``Dataset.write_parquet``.  The pages are read
    once, by the split source (``read_pages``), never by
    ``ray.data.read_parquet``, so no Parquet sampling runs, and the read
    fuses with extract, the link scan, the partials and the bucket map
    into the execution's first operator."""
    from ray.data import Dataset
    from ray.data._internal.datasource import parquet_datasource

    from clangd_to_neo4j_ray.pipelines import build_graph as build_graph_mod

    fx, path = _flat_corpus_with_silent_page(tmp_path)
    exchanges: list[str] = []
    actor_stages: list[str] = []
    parquet_writes: list[str] = []
    parquet_reads: list = []
    split_reads: list = []
    samples: list = []
    plans: list[list[str]] = []

    def count_exchange(name, orig):
        def wrapper(self, *args, **kwargs):
            exchanges.append(name)
            return orig(self, *args, **kwargs)

        return wrapper

    def mapping(name, orig):
        def wrapper(self, fn, *args, **kwargs):
            if isinstance(fn, type) or isinstance(kwargs.get("concurrency"), tuple):
                actor_stages.append(f"{name}({getattr(fn, '__name__', fn)})")
            return orig(self, fn, *args, **kwargs)

        return wrapper

    def counted(calls, orig):
        def wrapper(*args, **kwargs):
            calls.append(args[0] if args else kwargs)
            return orig(*args, **kwargs)

        return wrapper

    executions = count_executions(monkeypatch, plans)
    for name in ("groupby", "sort", "repartition", "random_shuffle", "unique", "join"):
        monkeypatch.setattr(Dataset, name, count_exchange(name, getattr(Dataset, name)))
    for name in ("map_batches", "map", "flat_map", "filter"):
        monkeypatch.setattr(Dataset, name, mapping(name, getattr(Dataset, name)))

    write_parquet = Dataset.write_parquet

    def counted_write(self, path, *args, **kwargs):
        parquet_writes.append(path)
        return write_parquet(self, path, *args, **kwargs)

    monkeypatch.setattr(Dataset, "write_parquet", counted_write)
    monkeypatch.setattr(ray.data, "read_parquet", counted(parquet_reads, ray.data.read_parquet))
    monkeypatch.setattr(
        build_graph_mod, "read_pages", counted(split_reads, build_graph_mod.read_pages)
    )
    monkeypatch.setattr(
        parquet_datasource,
        "sample_fragments",
        counted(samples, parquet_datasource.sample_fragments),
    )

    build_graph(path, fx.entities, str(tmp_path / "graph"))
    assert len(executions) == 1, executions
    assert exchanges == ["sort"]
    assert actor_stages == []
    assert parquet_writes == []
    assert parquet_reads == []
    assert split_reads == [path]
    assert samples == []
    assert plans == [BUILD_PLAN]


def test_incremental_stage2_is_one_execution(tmp_path, monkeypatch):
    """With every partition checkpointed, an incremental build is its
    stage 2 alone: one Ray Data execution over the checkpointed rows."""
    from clangd_to_neo4j_ray.pipelines.incremental import incremental_build

    fx, path = _flat_corpus_with_silent_page(tmp_path)
    work = str(tmp_path / "work")
    incremental_build(path, fx.entities, work, str(tmp_path / "first"))
    executions = count_executions(monkeypatch)
    r = incremental_build(path, fx.entities, work, str(tmp_path / "second"))
    assert r["stage1"]["computed"] == []
    assert len(executions) == 1, executions


def _link_rows(tbl: pa.Table) -> set[tuple]:
    return set(zip(*(tbl[c].to_pylist() for c in tbl.column_names)))


def test_link_scan_memo_is_per_dictionary():
    """Two link_scan_stage runs in one session with different dictionaries
    each see their own dictionary (no stale per-process linker), and the
    task-map output equals the in-process LinkScan as a row set."""
    from clangd_to_neo4j_ray.stages.extract import extract_batch

    fx = generate_pages(80)
    batch = extract_batch(fx.pages).select(["url", "text"])
    lut_a = alias_lookup(fx.entities)
    # same surfaces, every entity id renamed: any stale linker shows up
    lut_b = {
        alias: ("b-" + v if isinstance(v, str) else [("b-" + e, c) for e, c in v])
        for alias, v in lut_a.items()
    }
    pages = ray.data.from_arrow(batch).repartition(4)
    for lut in (lut_a, lut_b, lut_a):
        got = link_scan_stage(pages, ray.put(lut)).to_arrow_refs()
        got = pa.concat_tables(
            [t for t in ray.get(got) if t.num_rows], promote_options="default"
        )
        want = LinkScan(lut)(batch)
        assert _link_rows(got.select(want.column_names)) == _link_rows(want)


def test_graph_queries_stream_their_input_once(monkeypatch):
    """Under ``broadcast_threshold`` a BFS to any depth, components, every
    PageRank variant, HITS and triangles run no exchange: over a
    materialized input under ``joins.BROADCAST_BYTES`` no Ray Data
    execution at all (its blocks are read on the driver), over a lazy
    view of the same edges exactly one.  A threshold of 0 or 1 still
    takes the distributed path (whose first exchange is refused here)."""
    from ray.data import Dataset

    from clangd_to_neo4j_ray.stages.graph_algo import (
        connected_components_ds,
        hits_ds,
        pagerank_ds,
        pagerank_personalized_ds,
        pagerank_weighted_ds,
        reachable_from_ds,
        triangles_ds,
    )

    class Exchange(Exception):
        pass

    def refuse(self, *args, **kwargs):
        raise Exchange

    chain = ["a", "b", "c", "d", "e"]
    materialized = ray.data.from_arrow(
        pa.table(
            {"src": chain[:-1] + ["a"], "dst": chain[1:] + ["c"], "w": [1, 2, 3, 4, 5]}
        )
    )
    lazy = materialized.map_batches(lambda t: t, batch_format="pyarrow")
    executions = count_executions(monkeypatch)
    for name in ("groupby", "sort", "repartition", "random_shuffle", "unique", "join"):
        monkeypatch.setattr(Dataset, name, refuse)

    queries = {
        "components": connected_components_ds,
        "pagerank": pagerank_ds,
        "weighted": pagerank_weighted_ds,
        "personalized": lambda ds, **kw: pagerank_personalized_ds(ds, ["a"], **kw),
        "hits": hits_ds,
        "triangles": triangles_ds,
    }
    for ds, expected in ((materialized, 0), (lazy, 1)):
        for max_hops in (3, None):
            executions.clear()
            bfs = reachable_from_ds(ds, ["a"], max_hops=max_hops)
            assert len(executions) == expected, (max_hops, executions)
            assert {(r["node"], r["hops"]) for r in bfs.take_all()} == {
                ("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 3)
            }
        for name, query in queries.items():
            executions.clear()
            query(ds)
            assert len(executions) == expected, (name, expected, executions)

    for threshold in (0, 1):
        with pytest.raises(Exchange):
            reachable_from_ds(materialized, ["a"], broadcast_threshold=threshold)
        for name, query in queries.items():
            with pytest.raises(Exchange):
                query(materialized, broadcast_threshold=threshold)


def test_distributed_graph_rounds_are_one_exchange_each(monkeypatch):
    """Past ``broadcast_threshold`` every graph round is ONE exchange, so
    one ``Dataset.sort``, and no other all-to-all runs: a k-hop BFS sorts
    once per hop, PageRank (every variant) ``PR_ITERS + 2`` times, HITS
    ``2 * HITS_ITERS + 1`` times, triangles 3 times, and components at
    most once to start plus twice (the round and its pointer chase) per
    round."""
    from ray.data import Dataset

    from clangd_to_neo4j_ray.stages.graph_algo import (
        HITS_ITERS,
        PR_ITERS,
        connected_components_ds,
        hits_ds,
        pagerank_ds,
        pagerank_personalized_ds,
        pagerank_weighted_ds,
        reachable_from_ds,
        triangles_ds,
    )

    sorts: list[str] = []
    sort = Dataset.sort

    def counted(self, *args, **kwargs):
        sorts.append("sort")
        return sort(self, *args, **kwargs)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an exchange other than shuffle.exchange")

    monkeypatch.setattr(Dataset, "sort", counted)
    for name in ("groupby", "repartition", "random_shuffle", "unique", "join"):
        monkeypatch.setattr(Dataset, name, refuse)

    chain = [f"n{i}" for i in range(10)]
    ds = ray.data.from_arrow(
        pa.table({"src": chain[:-1], "dst": chain[1:], "w": list(range(1, 10))})
    )
    for query, expected in (
        (lambda: reachable_from_ds(ds, ["n0"], max_hops=3, broadcast_threshold=0), 3),
        (lambda: pagerank_ds(ds, broadcast_threshold=0), PR_ITERS + 2),
        (lambda: pagerank_weighted_ds(ds, broadcast_threshold=0), PR_ITERS + 2),
        (
            lambda: pagerank_personalized_ds(ds, ["n0"], broadcast_threshold=0),
            PR_ITERS + 2,
        ),
        (lambda: hits_ds(ds, broadcast_threshold=0), 2 * HITS_ITERS + 1),
    ):
        sorts.clear()
        assert query().take_all()
        assert len(sorts) == expected, (expected, sorts)
    # the chain plus one chord closes the triangle n0-n1-n2
    closed = ray.data.from_arrow(
        pa.table({"src": [*chain[:-1], "n2"], "dst": [*chain[1:], "n0"]})
    )
    sorts.clear()
    tri = triangles_ds(closed, broadcast_threshold=0).take_all()
    assert sorted(r["node"] for r in tri if r["n_triangles"]) == ["n0", "n1", "n2"]
    assert len(sorts) == 3, sorts
    rounds: list[int] = []
    sorts.clear()
    labels = connected_components_ds(ds, broadcast_threshold=0, round_edge_counts=rounds)
    assert {r["label"] for r in labels.take_all()} == {"n0"}
    assert rounds and len(sorts) <= 1 + 2 * len(rounds), (rounds, sorts)
