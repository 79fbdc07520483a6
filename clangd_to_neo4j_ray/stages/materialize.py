"""Stage W: graph materialization — one streaming sink per table + manifest.

The sink family replacing the reference's live-Neo4j ingest (K1/K2/K4,
``clangd_symbol_nodes_builder.py:148-382``, ``neo4j_manager.py:180-205``),
written the way its batched-parallel K2 ingest writes: each batch once, as
it streams past.  One task-based ``map_batches`` writer per table takes a
batch and writes, from that same batch,

- one Parquet part file of ``nodes/``, ``edges/`` or ``triples/``
  (partitioned part files — resumable layout, never one giant file);
- for nodes and edges, when the Neo4j CSV is asked for, the batch's sorted
  per-label/per-type **bulk-import** CSV parts with ``:ID/:LABEL`` and
  ``:START_ID/:TYPE/:END_ID`` headers (``neo4j-admin database import``
  format) — MERGE idempotency is guaranteed upstream by canonicalization,
  so the offline bulk path needs no live DB.

No graph row is read back: the writers return tiny manifest rows (path,
key, rows, bytes) and the per-stage records of ``manifest.json`` (lineage
= input fingerprint, the pickle-cache/commit-stamp analog S3/S8,
``clangd_index_yaml_parser.py:136-192``, ``compilation_manager.py:27-94``)
are summed from them.

Every directory is written under ``<dir>.tmp`` then swapped into place —
atomic publish per directory, and a re-run into the same ``out_dir``
replaces its outputs, never appends to them.  Every part file is written
to ``<part>.tmp`` then renamed, under a name fixed by the write, the Ray
task index and the batch's number within the task: a sink task that Ray
retries rewrites its own parts instead of adding a second set.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data._internal.execution.interfaces import TaskContext

from ..context import DEFAULT_BATCH_SIZE

NODE_SCHEMA = pa.schema([(c, pa.string()) for c in ("node_id", "label", "name")])
EDGE_SCHEMA = pa.schema([(c, pa.string()) for c in ("src", "type", "dst")])
NEO4J_NODE_HEADER = {"node_id": "node_id:ID", "label": ":LABEL", "name": "name"}
NEO4J_EDGE_HEADER = {"src": ":START_ID", "type": ":TYPE", "dst": ":END_ID"}
# Neo4j CSV layout of a table: (directory prefix, partition key column,
# sort columns within a key, header names)
NODE_CSV = ("nodes", "label", ["node_id"], NEO4J_NODE_HEADER)
EDGE_CSV = ("edges", "type", ["src", "dst"], NEO4J_EDGE_HEADER)


def write_graph(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    out_dir: str,
    *,
    lineage: dict | None = None,
    write_neo4j_csv: bool = True,
) -> dict:
    """Write nodes/edges Parquet (+ optional Neo4j bulk CSVs) + manifest,
    one streaming pass per table.

    Returns the manifest dict.  Output layout::

        out_dir/nodes/*.parquet
        out_dir/edges/*.parquet
        out_dir/neo4j/nodes_<LABEL>/{header.csv,part-*.csv}
        out_dir/neo4j/edges_<TYPE>/{header.csv,part-*.csv}
        out_dir/neo4j/{schema.cypher,import.sh}
        out_dir/manifest.json
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_dir = os.path.join(out_dir, "neo4j")
    csv_tmp = _fresh_tmp(csv_dir) if write_neo4j_csv else None
    nodes_dir = os.path.join(out_dir, "nodes")
    edges_dir = os.path.join(out_dir, "edges")
    write_nodes, csv_files = write_table(
        nodes, nodes_dir, NODE_SCHEMA, (csv_tmp, NODE_CSV) if csv_tmp else None
    )
    write_edges, edge_csv = write_table(
        edges, edges_dir, EDGE_SCHEMA, (csv_tmp, EDGE_CSV) if csv_tmp else None
    )
    csv_files += edge_csv
    if csv_tmp:
        _write_import_artifacts(csv_tmp, csv_files)
        _publish(csv_tmp, csv_dir)
        csv_files = [csv_dir + p[len(csv_tmp):] for p in csv_files]

    from ..functions.memdebug import snapshot

    manifest = {
        "lineage": lineage or {},
        "memory": snapshot(),  # memory_debugger.py:8-39 analog, per run
        "stages": {"write_nodes": write_nodes, "write_edges": write_edges},
        "outputs": {"nodes": nodes_dir, "edges": edges_dir, "neo4j_csv": csv_files},
    }
    _publish_manifest(out_dir, manifest)
    return manifest


def write_triples(triples: ray.data.Dataset, out_dir: str, manifest: dict) -> dict:
    """Publish the canonical triples as ``out_dir/triples`` Parquet through
    the same sink (no CSV), recording the ``write_triples`` stage and the
    output path in ``manifest`` and ``manifest.json``."""
    from .canonicalize import TRIPLE_SCHEMA

    path = os.path.join(out_dir, "triples")
    manifest["stages"]["write_triples"], _ = write_table(triples, path, TRIPLE_SCHEMA)
    manifest["outputs"]["triples"] = path
    _publish_manifest(out_dir, manifest)
    return manifest


def _fresh_tmp(final_dir: str) -> str:
    tmp = final_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def _publish(tmp: str, final_dir: str) -> None:
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)


def _publish_manifest(out_dir: str, manifest: dict) -> None:
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def write_table(
    ds: ray.data.Dataset,
    final_dir: str,
    schema: pa.Schema | None,
    csv: tuple[str, tuple] | None = None,
) -> tuple[dict, list[str]]:
    """One streaming pass over ``ds``: Parquet part files published to
    ``final_dir`` and, when ``csv`` = (CSV directory, ``NODE_CSV`` or
    ``EDGE_CSV``) is given, the Neo4j CSV parts written into that directory.
    Batches of ``DEFAULT_BATCH_SIZE`` rows bound a writer's memory and
    coalesce the many small blocks of a graph union, so a table gets a few
    part files, not one per block; a table with no rows gets one empty part
    typed by ``schema`` (none when the caller declares no row type).  The
    graph tables and every ``StageCheckpoint`` partition are written here.

    Returns the stage record (rows, parquet_parts, csv_parts, bytes,
    wall_sec) and the CSV part paths, both from the writers' manifest
    rows."""
    t0 = time.perf_counter()
    tmp = _fresh_tmp(final_dir)
    files = ds.map_batches(
        _TableSink(tmp, csv),
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
    ).take_all()
    parts = [f for f in files if f["key"] is None]
    if not parts and schema is not None:
        pq.write_table(schema.empty_table(), os.path.join(tmp, "part-empty.parquet"))
    _publish(tmp, final_dir)
    stage = {
        "rows": sum(f["rows"] for f in parts),
        "parquet_parts": len(parts),
        "csv_parts": len(files) - len(parts),
        "bytes": sum(f["bytes"] for f in files),
        "wall_sec": round(time.perf_counter() - t0, 4),
    }
    return stage, sorted(f["path"] for f in files if f["key"] is not None)


class _TableSink:
    """map_batches task: write one batch as one Parquet part file under
    ``parquet_dir`` and, when ``csv`` = (CSV directory, layout) is given,
    the same batch sorted by (key, ...sort cols) with its per-key runs as
    headerless CSV part files under ``<csv dir>/<prefix>_<KEY>/part-*.csv``.
    Returns one manifest row per file written — path, key (null for the
    Parquet part), rows, bytes — never data.

    Every CSV part file is internally sorted and holds one label/type; no
    global sort is needed.  Multiple part files per key is the bulk-import
    contract: ``neo4j-admin database import`` takes a header file plus any
    number of data files per label/type, so no stage ever concatenates a
    whole partition — the old driver-side concat per label was the repo's
    worst scale-killer (VERDICT r1 #3).  Passed to ``map_batches`` as an
    instance, so it runs as a task, not an actor.

    Parts are named ``part-<write id>_<task index>_<batch number>``; a
    retried task has a new ``TaskContext`` with the same index and the same
    batches, so it rewrites its first attempt's parts.
    """

    def __init__(self, parquet_dir: str, csv: tuple[str, tuple] | None):
        self.parquet_dir = parquet_dir
        self.csv = csv
        if csv:
            self.csv_dir, (self.prefix, self.key_col, sort_cols, self.header) = csv
            self.sort_keys = [(c, "ascending") for c in [self.key_col, *sort_cols]]
        self.write_id = uuid.uuid4().hex[:12]
        self.task, self.n_batches = None, 0

    def _part_name(self) -> str:
        task = TaskContext.get_current()
        if task is not self.task:
            self.task, self.n_batches = task, 0
        self.n_batches += 1
        idx = task.task_idx if task else 0
        return f"part-{self.write_id}_{idx:06d}_{self.n_batches - 1:06d}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        files: list[tuple[str, str | None, int]] = []
        if batch.num_rows:
            name = self._part_name()
            if self.csv:
                batch = batch.sort_by(self.sort_keys)
            path = os.path.join(self.parquet_dir, f"{name}.parquet")
            pq.write_table(batch, path + ".tmp")
            os.replace(path + ".tmp", path)
            files.append((path, None, batch.num_rows))
            if self.csv:
                files += self._write_csv(batch, name)
        paths, keys, rows = zip(*files) if files else ((), (), ())
        return pa.table(
            {
                "path": pa.array(paths, type=pa.string()),
                "key": pa.array(keys, type=pa.string()),
                "rows": pa.array(rows, type=pa.int64()),
                "bytes": pa.array([os.path.getsize(p) for p in paths], type=pa.int64()),
            }
        )

    def _write_csv(self, batch: pa.Table, name: str) -> list[tuple[str, str, int]]:
        import pyarrow.csv as pacsv

        opts = pacsv.WriteOptions(include_header=False)
        files = []
        for key_tbl in _key_slices(batch, self.key_col):
            key = key_tbl[self.key_col][0].as_py()
            d = os.path.join(self.csv_dir, f"{self.prefix}_{_safe_key(key)}")
            os.makedirs(d, exist_ok=True)
            hdr_path = os.path.join(d, "header.csv")
            if not os.path.exists(hdr_path):
                cols = [self.header.get(c, c) for c in batch.column_names]
                tmp_h = f"{hdr_path}.tmp-{name}"  # one per writer: tasks race here
                with open(tmp_h, "w") as f:
                    f.write(",".join(f'"{c}"' for c in cols) + "\n")
                os.replace(tmp_h, hdr_path)  # idempotent across writers
            path = os.path.join(d, f"{name}.csv")
            pacsv.write_csv(key_tbl, path + ".tmp", write_options=opts)
            os.replace(path + ".tmp", path)
            files.append((path, str(key), key_tbl.num_rows))
        return files


def _key_slices(batch: pa.Table, key_col: str):
    """Contiguous runs of equal key (input is sorted by key) -> sub-tables."""
    import numpy as np

    arr = batch[key_col].combine_chunks().to_numpy(zero_copy_only=False)
    n = len(arr)
    change = (np.nonzero(arr[1:] != arr[:-1])[0] + 1).tolist()
    bounds = [0, *change, n]
    for s, e in zip(bounds[:-1], bounds[1:]):
        yield batch.slice(s, e - s)


def _safe_key(key) -> str:
    """Injective filesystem encoding of a partition key: percent-escape
    '%' then '/' so distinct keys (e.g. 'FOO/BAR' vs 'FOO_BAR') can never
    collapse into one partition directory (code-review r2)."""
    return str(key).replace("%", "%25").replace("/", "%2F")


def _unsafe_key(safe: str) -> str:
    """Inverse of ``_safe_key``."""
    return safe.replace("%2F", "/").replace("%25", "%")


def _write_import_artifacts(csv_dir: str, written: list[str]) -> None:
    """Offline-import completion artifacts next to the CSVs (VERDICT r2
    next-round #5): ``schema.cypher`` holding the per-label uniqueness
    constraints and summary-embedding vector indices the reference creates
    live (``neo4j_manager.py:45-54`` constraints, ``:224-239`` 384-dim
    cosine indices — ours use the engine's EMBED_DIM), and ``import.sh``
    with the ``neo4j-admin database import`` argument list covering every
    node/edge partition written.  Together with the CSVs this is the whole
    bulk-import story: import, then apply the DDL."""
    from ..pipelines.enrich import EMBED_DIM

    dirs = {os.path.basename(os.path.dirname(p)) for p in written}
    labels = sorted(_unsafe_key(d[len("nodes_") :]) for d in dirs if d.startswith("nodes_"))
    types = sorted(_unsafe_key(d[len("edges_") :]) for d in dirs if d.startswith("edges_"))

    lines = ["// generated by write_graph — apply after bulk import",
             "// constraints: neo4j_manager.py:45-54 analog (key = node_id)"]
    for lb in labels:
        lines.append(
            f"CREATE CONSTRAINT IF NOT EXISTS FOR (n:`{lb}`) "
            "REQUIRE n.node_id IS UNIQUE;"
        )
    lines.append(
        f"// vector indices: neo4j_manager.py:224-239 analog "
        f"({EMBED_DIM}-dim cosine on summaryEmbedding)"
    )
    for lb in labels:
        # md5 suffix keeps sanitized identifiers collision-free across
        # labels that differ only in non-alphanumeric chars ('A/B' vs
        # 'A_B' — code-review r3: the second CREATE ... IF NOT EXISTS
        # would silently no-op and leave that label unindexed)
        import hashlib as _hashlib

        ident = (
            "".join(c if c.isalnum() else "_" for c in lb.lower())
            + "_"
            + _hashlib.md5(lb.encode()).hexdigest()[:6]
        )
        lines.append(
            f"CREATE VECTOR INDEX {ident}_summary_embeddings IF NOT EXISTS "
            f"FOR (n:`{lb}`) ON (n.summaryEmbedding) OPTIONS {{indexConfig: "
            f"{{`vector.dimensions`: {EMBED_DIM}, "
            "`vector.similarity_function`: 'cosine'}}};"
        )
    schema_path = os.path.join(csv_dir, "schema.cypher")
    with open(schema_path + ".tmp", "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(schema_path + ".tmp", schema_path)

    args = []
    for lb in labels:
        d = f"nodes_{_safe_key(lb)}"
        args.append(f'  --nodes="{d}/header.csv,{d}/part-.*\\.csv" \\')
    for tp in types:
        d = f"edges_{_safe_key(tp)}"
        args.append(f'  --relationships="{d}/header.csv,{d}/part-.*\\.csv" \\')
    sh = [
        "#!/bin/sh",
        "# generated by write_graph — run from this directory",
        "set -e",
        "neo4j-admin database import full neo4j \\",
        *args,
        "  --overwrite-destination",
        "# after the DB is online, apply constraints + vector indices:",
        "#   cypher-shell -f schema.cypher",
    ]
    import_path = os.path.join(csv_dir, "import.sh")
    with open(import_path + ".tmp", "w") as f:
        f.write("\n".join(sh) + "\n")
    os.replace(import_path + ".tmp", import_path)
    os.chmod(import_path, 0o755)


def validate_graph(out_dir: str) -> dict:
    """Graph invariants (FIXTURES.md F5): node_id unique; edge endpoints
    exist in nodes; no orphan nodes (A8 anti-join,
    ``neo4j_manager.py:124-128``).  Returns violation counts.  Test-scale
    validation utility (materializes id columns on the driver); the
    at-scale path is the same anti-join expressed as a groupby."""
    ids = pq.read_table(os.path.join(out_dir, "nodes"), columns=["node_id"])[0].to_pylist()
    id_set = set(ids)
    edge_tbl = pq.read_table(os.path.join(out_dir, "edges"), columns=["src", "dst"])
    srcs, dsts = edge_tbl["src"].to_pylist(), edge_tbl["dst"].to_pylist()
    endpoint_set = set(srcs) | set(dsts)
    return {
        "duplicate_node_ids": len(ids) - len(id_set),
        "dangling_edges": sum(1 for x in srcs if x not in id_set)
        + sum(1 for x in dsts if x not in id_set),
        "orphan_nodes": len(id_set - endpoint_set),
    }
