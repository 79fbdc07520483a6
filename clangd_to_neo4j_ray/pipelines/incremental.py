"""Resumable + incremental graph build (the §3.2 updater analog).

``clangd_graph_rag_updater.py:43-182`` drives a git-diff dirty scope through
purge -> rebuild-dirty -> re-enrich, and its Phase 4 re-runs the full build's
own processors on the dirty scope.  Ours is the full build with a
checkpoint in front, running the full build's stages (pipelines/build_graph.py):

- **stage 1 (per-partition, checkpointed)**: ``extract_stage`` +
  ``link_scan_stage`` on each pages partition, one Ray execution each,
  written through the graph sink under ``work_dir/link/<part>/`` with
  fingerprint lineage and the scan's declared row type (``TAG_SCHEMA``).  A
  re-run recomputes only partitions whose input fingerprint changed
  (added/modified), and purges outputs of deleted partitions — the
  added/modified/deleted diff of S9 (``git_manager.py:54-152``) expressed
  as manifest set-difference (D6/D7).
- **stage 2 (global)**: ``publish_graph``, the full build's own stage 2
  (the one graph exchange streaming into the graph sink, one Ray
  execution), over the checkpointed tagged rows — they carry a row per
  page, so the pages are not read again.  Like the reference, the
  expensive parse work is cached; the wide merge is redone (Cypher MERGE
  was the reference's always-rerun merge).

Invariant (FIXTURES.md F6, tested): incremental output == full-build
output for any mix of added/modified/deleted partitions.
"""

from __future__ import annotations

import ray

from ..sources.fixtures import EntityRecord, alias_lookup
from ..stages.extract import extract_stage
from ..stages.linking import TAG_SCHEMA, link_scan_stage
from ..state.checkpoint import StageCheckpoint
from .build_graph import publish_graph


def incremental_build(
    pages_dir: str,
    entities: list[EntityRecord],
    work_dir: str,
    out_dir: str,
) -> dict:
    """Run (or resume / incrementally update) the full graph build.

    Returns {"stage1": {computed, skipped, purged}, "manifest": ...}."""
    alias_ref = ray.put(alias_lookup(entities))
    ckpt = StageCheckpoint(work_dir, "link", TAG_SCHEMA)
    stage1 = ckpt.run(
        pages_dir, lambda pages: link_scan_stage(extract_stage(pages), alias_ref)
    )
    manifest = publish_graph(
        ckpt.output_dataset(),
        {e.entity_id: e.canonical_name for e in entities},
        out_dir,
        lineage={"input": pages_dir, "stage1": stage1},
        write_neo4j_csv=False,
    )
    return {"stage1": stage1, "manifest": manifest}
