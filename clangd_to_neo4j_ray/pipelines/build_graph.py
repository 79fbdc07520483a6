"""Flagship pipeline: pages Parquet -> knowledge graph (full build).

The Ray-Data re-expression of the reference's full build
(``clangd_graph_rag_builder.py:48-78``, SURVEY §3.1):

    read_parquet(pages)                        Pass 0/1: sources (S1-S6)
      -> extract_stage (map_batches)           byte-identical text per url
      -> link_scan_stage (task map, 1 pass)    Passes 2+6: spans + calls (J2-J4)
      -> canonicalize_triples (bucketed        Pass 4 + D1/D5: MERGE dedup
         two-phase groupby)
      -> entity/hierarchy nodes + edges        Passes 3-5: paths/symbols/includes
      -> write_graph + write_triples           K1/K2/K4 sinks + cache manifest
         (one streaming sink per table)

One linear dataflow, streaming end-to-end, with exactly three all-to-all
exchanges per build, all bucketed (stages/shuffle.py): the triple
canonicalization, the hierarchy distinct (DOMAIN/FOLDER rows keyed by node
id) and the entity/mention distinct (keyed by entity id).  The sink writes
each nodes/edges batch once, as Parquet and as sorted Neo4j CSV parts from
the same batch (sorted per batch, not globally), and never reads a written
row back: a build runs 9 Ray Data executions.

Stage 1 is the extract + link scan, stage 2 (``graph_datasets``, then
``publish_graph``) everything after it.  The incremental build
(pipelines/incremental.py) runs the same two stages, stage 1 per pages
partition behind a ``StageCheckpoint``: there is one build path.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray
import ray.data

from ..functions.textops import prefixed
from ..sources.fixtures import EntityRecord
from ..stages.canonicalize import canonicalize_triples
from ..stages.extract import extract_stage
from ..stages.hierarchy import hierarchy_dataset, hierarchy_edges, hierarchy_nodes
from ..stages.linking import link_scan_stage, split_link_scan
from ..stages.materialize import EDGE_SCHEMA, NODE_SCHEMA, write_graph, write_triples
from ..stages.shuffle import (
    _bucketed_polars,
    _compat,
    auto_num_buckets,
    drop_empty_blocks,
)


def _partial_pairs(batch: pa.Table) -> pa.Table:
    """Per batch: distinct (entity_id, url) mention pairs."""
    return (
        batch.select(["entity_id", "url"])
        .group_by(["entity_id", "url"])
        .aggregate([])
    )


def _pairs_bucket(batch: pa.Table) -> pa.Table:
    """One entity bucket: its distinct (entity_id, url) pairs, the first
    row of each entity flagged (that row becomes the ENTITY node)."""
    df = pl.from_arrow(batch).drop("__bucket").unique(maintain_order=False)
    return _compat(
        df.with_columns(pl.col("entity_id").is_first_distinct().alias("first"))
        .to_arrow()
    )


def entity_mention_pairs(mentions: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct (entity_id, url, first) rows: ONE bucketed exchange keyed by
    entity_id alone feeds both the ENTITY nodes (``first`` rows: orphan
    cleanup by construction, A8) and the MENTIONS edges (all rows)."""
    partials = mentions.map_batches(
        _partial_pairs, batch_format="pyarrow", batch_size=65536
    )
    return drop_empty_blocks(
        _bucketed_polars(
            partials, ["entity_id"], _pairs_bucket, auto_num_buckets(partials)
        )
    )


def _derive(src: ray.data.Dataset, fn, schema: pa.Schema) -> ray.data.Dataset:
    """``fn`` mapped over a materialized ``src``; a typed empty dataset when
    ``src`` has no rows (Ray never calls a map UDF on a 0-row block)."""
    if src.count():
        return src.map_batches(fn, batch_format="pyarrow")
    return ray.data.from_arrow(schema.empty_table())


def graph_nodes_edges(
    pages_urls: ray.data.Dataset,
    mentions: ray.data.Dataset,
    triples: ray.data.Dataset,
    entity_names: dict[str, str],
):
    """Construct the (nodes, edges) datasets from pipeline intermediates.

    ``pages_urls`` needs only a ``url`` column; ``mentions`` needs
    (url, entity_id); ``triples`` is the canonicalized triple set.  Runs
    two exchanges: the hierarchy and the entity/mention distinct."""
    names_ref = ray.put(entity_names)

    def entity_rows(t: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        ids = t.filter(t["first"])["entity_id"].to_pylist()
        return pa.table(
            [
                pa.array([f"entity:{i}" for i in ids], type=pa.string()),
                pa.repeat(pa.scalar("ENTITY"), len(ids)),
                pa.array([names.get(i, i) for i in ids], type=pa.string()),
            ],
            schema=NODE_SCHEMA,
        )

    def mention_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            [
                prefixed(t["url"], "page:"),
                pa.repeat(pa.scalar("MENTIONS"), len(t)),
                prefixed(t["entity_id"], "entity:"),
            ],
            schema=EDGE_SCHEMA,
        )

    def triple_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            [prefixed(t["subj"], "entity:"), t["pred"], prefixed(t["obj"], "entity:")],
            schema=EDGE_SCHEMA,
        )

    hierarchy = hierarchy_dataset(pages_urls)
    pairs = entity_mention_pairs(mentions)
    nodes = hierarchy_nodes(pages_urls, hierarchy).union(
        _derive(pairs, entity_rows, NODE_SCHEMA)
    )
    edges = (
        hierarchy_edges(pages_urls, hierarchy)
        .union(_derive(pairs, mention_edges, EDGE_SCHEMA))
        .union(_derive(drop_empty_blocks(triples), triple_edges, EDGE_SCHEMA))
    )
    return nodes, edges


def build_graph_datasets(
    pages: ray.data.Dataset,
    alias_lut: dict[str, str],
    entity_names: dict[str, str],
):
    """Run the full build, returning (triples, mentions, nodes, edges)
    Datasets.

    ``alias_lut``: alias surface -> entity_id (broadcast once via ray.put).
    ``entity_names``: entity_id -> canonical name (for ENTITY node rows).
    """
    # ``extracted`` and ``tagged`` fan out to several consumers; a lazy
    # Dataset re-executes its whole lineage per consumer, so pin each shared
    # intermediate once (the in-memory form of the per-stage checkpoint —
    # the S3/S8 cache analog; state/checkpoint.py is the durable form).
    extracted = extract_stage(pages).materialize()

    # one-pass link+mention scan (the hot dictionary stage runs exactly once)
    tagged = link_scan_stage(extracted, ray.put(alias_lut)).materialize()
    return graph_datasets(extracted, tagged, entity_names)


def graph_datasets(
    pages_urls: ray.data.Dataset,
    tagged: ray.data.Dataset,
    entity_names: dict[str, str],
):
    """Stage 2 of every build: the link scan's tagged rows -> (triples,
    mentions, nodes, edges).  ``build_graph_datasets`` passes its in-memory
    scan, ``incremental_build`` the checkpointed one; ``pages_urls`` needs
    only a ``url`` column."""
    candidates, mentions = split_link_scan(tagged)
    triples = canonicalize_triples(candidates).materialize()
    mentions = mentions.materialize()
    nodes, edges = graph_nodes_edges(pages_urls, mentions, triples, entity_names)
    return triples, mentions, nodes, edges


def publish_graph(graph, out_dir: str, *, lineage: dict, write_neo4j_csv: bool) -> dict:
    """Write a ``graph_datasets`` result: nodes and edges through
    ``write_graph``, the triples through ``write_triples``; returns the
    manifest."""
    triples, _mentions, nodes, edges = graph
    manifest = write_graph(
        nodes, edges, out_dir, lineage=lineage, write_neo4j_csv=write_neo4j_csv
    )
    return write_triples(triples, out_dir, manifest)


def build_graph(
    pages_path: str,
    entities: list[EntityRecord],
    out_dir: str,
    *,
    write_neo4j_csv: bool = True,
    source_format: str = "parquet",
) -> dict:
    """End-to-end full build from a pages directory; returns manifest.

    Nodes and edges go through ``write_graph`` (Parquet, plus the Neo4j
    CSV from the same batches when ``write_neo4j_csv``), the triples
    through ``write_triples``; every output directory is replaced on a
    re-run into the same ``out_dir``, never appended to.

    ``source_format``: ``parquet`` (default) or ``warc`` — the latter
    ingests Common-Crawl-native WARC/1.0 files via ``sources.warc`` and
    derives text in the shared extract stage (same per-row invariant)."""
    from ..sources.fixtures import alias_lookup

    if source_format == "warc":
        from ..sources.warc import read_warc

        pages = read_warc(pages_path)
    else:
        pages = ray.data.read_parquet(pages_path)
    lut = alias_lookup(entities)
    names = {e.entity_id: e.canonical_name for e in entities}
    return publish_graph(
        build_graph_datasets(pages, lut, names),
        out_dir,
        lineage={"input": pages_path, "format": source_format},
        write_neo4j_csv=write_neo4j_csv,
    )
