"""Resumable + incremental graph build (the §3.2 updater analog).

``clangd_graph_rag_updater.py:43-182`` drives a git-diff dirty scope through
purge -> rebuild-dirty -> re-enrich.  Our analog is manifest-driven:

- **stage 1 (per-partition, checkpointed)**: extract + link + mention-scan
  each pages partition independently; outputs land under
  ``work_dir/link/<part>/`` with fingerprint lineage.  A re-run recomputes
  only partitions whose input fingerprint changed (added/modified), and
  purges outputs of deleted partitions — the added/modified/deleted diff of
  S9 (``git_manager.py:54-152``) expressed as manifest set-difference (D6/D7).
- **stage 2 (global, cheap)**: canonicalization + graph materialize re-run
  over the checkpointed narrow intermediates.  Like the reference, the
  expensive parse work is cached; the wide merge is redone (Cypher MERGE
  was the reference's always-rerun merge).

Invariant (FIXTURES.md F6, tested): incremental output == full-rebuild
output, byte-identically, for any mix of added/modified/deleted partitions.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..sources.fixtures import EntityRecord, alias_lookup
from ..stages.canonicalize import canonicalize_triples
from ..stages.extract import extract_batch
from ..stages.linking import LinkScan, split_link_scan
from ..state.checkpoint import StageCheckpoint


def _link_partition(alias_lut: dict[str, str]):
    """Per-partition transform: pages -> tagged candidate+mention rows.

    One LinkScan pass per partition produces both candidate triples and
    mention rows in a single table (kind column) — the hot dictionary scan
    runs once."""

    scan = LinkScan(alias_lut)

    def fn(pages: ray.data.Dataset) -> ray.data.Dataset:
        def transform(batch: pa.Table) -> pa.Table:
            return scan(extract_batch(batch))

        return pages.map_batches(transform, batch_format="pyarrow", batch_size=256)

    return fn


def incremental_build(
    pages_dir: str,
    entities: list[EntityRecord],
    work_dir: str,
    out_dir: str,
) -> dict:
    """Run (or resume / incrementally update) the full graph build.

    Returns {"stage1": {computed, skipped, purged}, "manifest": ...}."""
    from ..stages.materialize import write_graph, write_triples

    lut = alias_lookup(entities)
    ckpt = StageCheckpoint(work_dir, "link")
    stage1 = ckpt.run(pages_dir, _link_partition(lut))

    candidates, mentions = split_link_scan(ckpt.output_dataset())
    triples = canonicalize_triples(candidates).materialize()
    mentions = mentions.materialize()

    # nodes/edges from the checkpointed intermediates (same construction as
    # the in-memory build — shared via graph_nodes_edges)
    from .build_graph import graph_nodes_edges

    names = {e.entity_id: e.canonical_name for e in entities}
    pages_for_hier = ray.data.read_parquet(pages_dir, columns=["url"])
    nodes, edges = graph_nodes_edges(pages_for_hier, mentions, triples, names)
    manifest = write_graph(
        nodes,
        edges,
        out_dir,
        lineage={"input": pages_dir, "stage1": stage1},
        write_neo4j_csv=False,
    )
    return {"stage1": stage1, "manifest": write_triples(triples, out_dir, manifest)}
