"""Flagship pipeline: pages Parquet -> knowledge graph (full build).

The Ray-Data re-expression of the reference's full build
(``clangd_graph_rag_builder.py:48-78``, SURVEY §3.1):

    read_pages(pages) (sources/pages.py)       Pass 0/1: sources (S1-S6)
      -> extract_stage (map_batches)           byte-identical text per url
      -> link_scan_stage (task map, 1 pass)    Passes 2+6: spans + calls (J2-J4),
                                               plus one row per page
      -> graph_exchange: per-batch partials,   Passes 3-5 + D1/D5: MERGE dedup,
         ONE bucketed exchange, one reducer    paths/symbols/includes
         emitting every node/edge/triple row
      -> graph sink (write_graph_rows)         K1/K2/K4 sinks + cache manifest

One linear dataflow, streaming end-to-end, with no ``.materialize()`` in
it: a build is ONE Ray Data execution with exactly one all-to-all
exchange (stages/canonicalize.py, bucketed by stages/shuffle.py).  No
stage before the exchange sets a batch size, so Ray fuses the read,
extract, link scan, partials and bucket map into one operator: one task
per input split, and the html never reaches the object store.  The
exchange carries the triple partials, the hierarchy's container rows, the
distinct entity/mention pairs and the page rows under one key column; its
reducers emit the final node, edge and triple rows, which stream straight
into the one sink.  The sink writes each batch once, as Parquet and as
sorted Neo4j CSV parts from the same batch (sorted per batch, not
globally), never reads a written row back, and publishes ``manifest.json``
once.

Stage 1 is the extract + link scan, stage 2 (``publish_graph``)
everything after it.  The incremental build (pipelines/incremental.py)
runs the same two stages, stage 1 per pages partition behind a
``StageCheckpoint``: there is one build path.  ``build_graph_datasets``
and ``graph_nodes_edges`` are views of the same exchange for callers that
want datasets instead of a written graph.
"""

from __future__ import annotations

import ray
import ray.data

from ..sources.fixtures import EntityRecord
from ..sources.pages import read_pages
from ..stages.canonicalize import graph_exchange, tagged_rows
from ..stages.extract import extract_stage
from ..stages.linking import link_scan_stage, split_link_scan
from ..stages.materialize import table_rows, write_graph_rows
from ..stages.shuffle import drop_empty_blocks


def graph_nodes_edges(
    pages_urls: ray.data.Dataset,
    mentions: ray.data.Dataset,
    triples: ray.data.Dataset,
    entity_names: dict[str, str],
):
    """(nodes, edges) datasets from pipeline intermediates: the graph
    exchange over them, materialized once.

    ``pages_urls`` needs only a ``url`` column; ``mentions`` needs
    (url, entity_id); ``triples`` needs (subj, pred, obj, evidence_url)."""
    tagged = tagged_rows(pages_urls, "page").union(
        tagged_rows(mentions, "mention"), tagged_rows(triples, "triple")
    )
    graph = drop_empty_blocks(graph_exchange(tagged, entity_names)[0])
    return table_rows(graph, "nodes"), table_rows(graph, "edges")


def build_graph_datasets(
    pages: ray.data.Dataset,
    alias_lut: dict[str, str],
    entity_names: dict[str, str],
):
    """Run the full build, returning (triples, mentions, nodes, edges)
    Datasets: the exchange output is materialized once and the triples,
    nodes and edges are views of it; ``mentions`` is the link scan's lazy
    mention rows (consuming it re-runs the scan).

    ``alias_lut``: alias surface -> entity_id (broadcast once via ray.put).
    ``entity_names``: entity_id -> canonical name (for ENTITY node rows).
    """
    tagged = link_scan_stage(extract_stage(pages), ray.put(alias_lut))
    graph = drop_empty_blocks(graph_exchange(tagged, entity_names)[0])
    triples, nodes, edges = (table_rows(graph, t) for t in ("triples", "nodes", "edges"))
    return triples, split_link_scan(tagged)[1], nodes, edges


def publish_graph(
    tagged: ray.data.Dataset,
    entity_names: dict[str, str],
    out_dir: str,
    *,
    lineage: dict,
    write_neo4j_csv: bool,
) -> dict:
    """Stage 2 of every build: the link scan's tagged rows -> the graph
    exchange -> the graph sink (nodes, edges, triples); returns the
    manifest.  ``build_graph`` passes its streaming scan,
    ``incremental_build`` the checkpointed one."""
    graph, layout = graph_exchange(tagged, entity_names)
    return write_graph_rows(
        graph,
        out_dir,
        ("nodes", "edges", "triples"),
        lineage=lineage,
        write_neo4j_csv=write_neo4j_csv,
        exchanges={"graph_exchange": layout},
    )


def build_graph(
    pages_path: str,
    entities: list[EntityRecord],
    out_dir: str,
    *,
    write_neo4j_csv: bool = True,
    source_format: str = "parquet",
) -> dict:
    """End-to-end full build from a pages directory; returns manifest.

    Nodes, edges and triples go through the graph sink (Parquet, plus the
    Neo4j CSV of nodes and edges from the same batches when
    ``write_neo4j_csv``); every output directory is replaced on a re-run
    into the same ``out_dir``, never appended to.

    ``source_format``: ``parquet`` (default) or ``warc`` — the latter
    ingests Common-Crawl-native WARC/1.0 files via ``sources.warc`` and
    derives text in the shared extract stage (same per-row invariant)."""
    from ..sources.fixtures import alias_lookup

    if source_format == "warc":
        from ..sources.warc import read_warc

        pages = read_warc(pages_path)
    else:
        pages = read_pages(pages_path)
    tagged = link_scan_stage(extract_stage(pages), ray.put(alias_lookup(entities)))
    return publish_graph(
        tagged,
        {e.entity_id: e.canonical_name for e in entities},
        out_dir,
        lineage={"input": pages_path, "format": source_format},
        write_neo4j_csv=write_neo4j_csv,
    )
