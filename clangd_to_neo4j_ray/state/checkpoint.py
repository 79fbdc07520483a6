"""Per-partition checkpoints with lineage + stage metrics.

The durable generalization of the reference's two pickle caches
(``clangd_index_yaml_parser.py:136-192`` mtime-validated index cache;
``compilation_manager.py:27-94`` git/mtime-validated parse cache) and its
graph-resident commit stamp (``clangd_graph_rag_builder.py:112-122``):

- one output directory per **input partition** (Parquet file), written by
  the graph sink (``materialize.write_table``): retry-safe part names, the
  directory published by tmp + swap, and one empty part typed by the
  stage's declared schema when a partition yields no rows;
- a JSON manifest per stage: partition id -> {input fingerprint, row
  contract, rows (summed from the sink's manifest rows), wall seconds,
  output path};
- a stage run skips partitions whose fingerprint and row contract match
  (resume), and recomputes exactly the dirty ones (incremental update,
  §3.2 analog).
  Partitions run one after another, one Ray execution each, and the
  manifest is saved after each, so a crash resumes from whatever finished.
  A partition and the read-back of every output both read through
  ``sources.pages.read_pages`` (one read task per split of files, no
  Parquet sampling), the build's own source.

Fingerprints are content-derived (full-file md5), never wall-clock — mtime
is what made the reference's cache validation fragile.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from collections.abc import Callable

import pyarrow as pa
import ray.data

from ..sources.pages import read_pages
from ..stages.materialize import write_table

# Version of the rows a partition holds; a partition written under another
# one is recomputed, never reused.  2: link scan partitions carry a row per
# page (partitions of version 1 have none).  3: link scan rows are exactly
# the regex spec's, also around intra-token punctuation (``Alpha-Beta``,
# ``Alpha's``), non-ASCII letters and non-space whitespace, where the token
# scanner of version 2 found no mention; a null text is a page row.
ROW_CONTRACT = 3


def fingerprint_file(path: str) -> str:
    """Full-content fingerprint of one Parquet partition.

    Hashing the whole file is cheap relative to recomputing the stage and
    closes the hole where a change past the first 64 KiB with unchanged size
    and row count was classified clean (ADVICE r1)."""
    st = os.stat(path)
    h = hashlib.md5()
    h.update(str(st.st_size).encode())
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def list_partitions(input_dir: str) -> dict[str, str]:
    """partition id (file stem) -> absolute path, sorted."""
    return {
        os.path.splitext(os.path.basename(p))[0]: p
        for p in sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    }


class StageCheckpoint:
    """Manifest-backed per-partition stage runner.

    ``schema`` declares the row type of the stage's output, so a partition
    with no rows still reads back typed."""

    def __init__(self, ckpt_dir: str, stage: str, schema: pa.Schema | None = None):
        self.dir = os.path.join(ckpt_dir, stage)
        self.schema = schema
        os.makedirs(self.dir, exist_ok=True)
        self.manifest_path = os.path.join(self.dir, "manifest.json")
        self.manifest: dict = {}
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                self.manifest = json.load(f)

    def _save(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.manifest, f, indent=2, sort_keys=True)
        os.replace(tmp, self.manifest_path)

    def run(
        self,
        input_dir: str,
        fn: Callable[[ray.data.Dataset], ray.data.Dataset],
    ) -> dict:
        """Apply ``fn`` per input partition, skipping up-to-date ones.

        Returns {"computed": [...], "skipped": [...], "purged": [...]}.
        Partitions present in the manifest but absent from the input are
        purged (the §3.2 Phase-3 purge analog, ``neo4j_manager.py:130-222``).
        """
        parts = list_partitions(input_dir)
        computed, skipped, purged = [], [], []

        for stale in set(self.manifest) - set(parts):
            out = self.manifest[stale].get("output")
            if out and os.path.exists(out):
                shutil.rmtree(out, ignore_errors=True)
            del self.manifest[stale]
            purged.append(stale)

        for pid, path in parts.items():
            fp = fingerprint_file(path)
            entry = self.manifest.get(pid)
            if (
                entry
                and entry.get("fingerprint") == fp
                and entry.get("contract") == ROW_CONTRACT
                and os.path.isdir(entry.get("output", ""))
            ):
                skipped.append(pid)
                continue
            out_dir = os.path.join(self.dir, pid)
            t0 = time.perf_counter()
            stage = write_table(fn(read_pages(path)), out_dir, self.schema)
            self.manifest[pid] = {
                "fingerprint": fp,
                "contract": ROW_CONTRACT,
                "output": out_dir,
                "rows": stage["rows"],
                "wall_sec": round(time.perf_counter() - t0, 4),
            }
            self._save()
            computed.append(pid)

        self._save()
        return {"computed": computed, "skipped": skipped, "purged": purged}

    def output_dataset(self) -> ray.data.Dataset:
        """Union of all partition outputs, read back through ``read_pages``
        (``ValueError`` when no partition has an output file)."""
        outs = (e.get("output", "") for e in self.manifest.values())
        return read_pages(sorted(o for o in outs if os.path.isdir(o)))

