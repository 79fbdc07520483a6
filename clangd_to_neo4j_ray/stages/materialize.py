"""Stage W: graph materialization — node/edge Parquet + Neo4j bulk CSV + manifest.

The sink family replacing the reference's live-Neo4j ingest (K1/K2/K4,
``clangd_symbol_nodes_builder.py:148-382``, ``neo4j_manager.py:180-205``):

- ``nodes/`` and ``edges/`` Parquet directories (partitioned part files —
  resumable layout, never one giant file);
- Neo4j **bulk-import** CSVs with ``:ID/:LABEL`` and ``:START_ID/:TYPE/:END_ID``
  headers (``neo4j-admin database import`` format), written by one
  streaming per-batch writer (several sorted part files per label/type) —
  MERGE idempotency is guaranteed upstream by canonicalization, so the
  offline bulk path needs no live DB;
- ``manifest.json`` per run: lineage (input fingerprint) + per-stage metrics,
  the pickle-cache/commit-stamp analog (S3/S8,
  ``clangd_index_yaml_parser.py:136-192``, ``compilation_manager.py:27-94``).

Writes go to a temp dir then rename — atomic publish per partition.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import ray.data

from ..context import DEFAULT_BATCH_SIZE

NEO4J_NODE_HEADER = {"node_id": "node_id:ID", "label": ":LABEL", "name": "name"}
NEO4J_EDGE_HEADER = {"src": ":START_ID", "type": ":TYPE", "dst": ":END_ID"}


def _write_parquet_atomic(ds: ray.data.Dataset, final_dir: str) -> None:
    """write_parquet into ``final_dir + '.tmp'`` then swap into place.

    Ray's write_parquet appends into an existing directory, so re-running a
    build with the same --out would silently double every row (ADVICE r1).
    The tmp+swap gives per-directory atomic publish: a reader never sees a
    half-written or doubled partition set."""
    tmp = final_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    os.makedirs(tmp, exist_ok=True)  # empty dataset may write no files
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)


def write_graph(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    out_dir: str,
    *,
    lineage: dict | None = None,
    write_neo4j_csv: bool = True,
) -> dict:
    """Write nodes/edges Parquet (+ optional Neo4j bulk CSVs) + manifest.

    Returns the manifest dict.  Output layout::

        out_dir/nodes/*.parquet
        out_dir/edges/*.parquet
        out_dir/neo4j/nodes_<LABEL>/{header.csv,part-*.csv}
        out_dir/neo4j/edges_<TYPE>/{header.csv,part-*.csv}
        out_dir/manifest.json
    """
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    nodes_dir = os.path.join(out_dir, "nodes")
    edges_dir = os.path.join(out_dir, "edges")
    _write_parquet_atomic(nodes, nodes_dir)
    t1 = time.perf_counter()
    _write_parquet_atomic(edges, edges_dir)
    t2 = time.perf_counter()

    n_nodes = _count_parquet_dir(nodes_dir)
    n_edges = _count_parquet_dir(edges_dir)

    csv_files: list[str] = []
    if write_neo4j_csv and n_nodes:
        neo4j_dir = os.path.join(out_dir, "neo4j")
        tmp_csv = neo4j_dir + ".tmp"
        shutil.rmtree(tmp_csv, ignore_errors=True)
        csv_files = write_neo4j_bulk_csv(
            _read_parquet_per_file(nodes_dir), _read_parquet_per_file(edges_dir), tmp_csv
        )
        shutil.rmtree(neo4j_dir, ignore_errors=True)
        os.replace(tmp_csv, neo4j_dir)
        csv_files = [neo4j_dir + p[len(tmp_csv):] for p in csv_files]

    # per-stage execution stats (A3 counter-accumulation analog): Ray Data's
    # stage breakdown for the node/edge writes, kept as text for inspection
    def _stats_of(ds: ray.data.Dataset) -> str:
        try:
            return ds.stats()[:4000]
        except Exception:
            return ""

    from ..functions.memdebug import snapshot

    mem = snapshot()  # memory_debugger.py:8-39 analog, per-run accounting
    manifest = {
        "lineage": lineage or {},
        "memory": mem,
        "stages": {
            "write_nodes": {
                "rows": n_nodes,
                "wall_sec": round(t1 - t0, 4),
                "ray_stats": _stats_of(nodes),
            },
            "write_edges": {
                "rows": n_edges,
                "wall_sec": round(t2 - t1, 4),
                "ray_stats": _stats_of(edges),
            },
        },
        "outputs": {
            "nodes": nodes_dir,
            "edges": edges_dir,
            "neo4j_csv": csv_files,
        },
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


def _read_parquet_per_file(path: str) -> ray.data.Dataset:
    """Read a Parquet directory as one block per file: the default read
    parallelism splits small files, leaving 0-row blocks that every map
    downstream passes on column-less (Ray's schema-drift warning)."""
    import glob

    n_files = len(glob.glob(os.path.join(path, "*.parquet")))
    return ray.data.read_parquet(path, override_num_blocks=max(1, n_files))


def _count_parquet_dir(path: str) -> int:
    """Metadata-only row count of a Parquet directory (no data read)."""
    import glob

    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(path, "*.parquet"))
    )


class _PartitionedCsvWriter:
    """map_batches task: sort each batch by (key, ...sort cols), then write
    its per-key runs as headerless CSV part files under
    ``csv_dir/<prefix>_<KEY>/part-*.csv``.

    Every part file is internally sorted and holds one label/type; no global
    sort is needed.  Multiple part files per key is the bulk-import
    contract: ``neo4j-admin database import`` takes a header file plus any
    number of data files per label/type, so no stage ever concatenates a
    whole partition — the old driver-side concat (``_resolve_arrow_refs``
    per label) was the repo's worst scale-killer (VERDICT r1 #3).
    """

    def __init__(
        self, csv_dir: str, prefix: str, key_col: str, sort_cols: list[str], header: dict
    ):
        self.csv_dir = csv_dir
        self.prefix = prefix
        self.key_col = key_col
        self.sort_keys = [(c, "ascending") for c in [key_col, *sort_cols]]
        self.header = header

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.csv as pacsv

        paths, keys, rows = [], [], []
        if batch.num_rows:
            batch = batch.sort_by(self.sort_keys)
            opts = pacsv.WriteOptions(include_header=False)
            for key_tbl in _key_slices(batch, self.key_col):
                key = key_tbl[self.key_col][0].as_py()
                safe = _safe_key(key)
                d = os.path.join(self.csv_dir, f"{self.prefix}_{safe}")
                os.makedirs(d, exist_ok=True)
                hdr_path = os.path.join(d, "header.csv")
                if not os.path.exists(hdr_path):
                    cols = [self.header.get(c, c) for c in batch.column_names]
                    tmp_h = hdr_path + f".tmp{uuid.uuid4().hex[:8]}"
                    with open(tmp_h, "w") as f:
                        f.write(",".join(f'"{c}"' for c in cols) + "\n")
                    os.replace(tmp_h, hdr_path)  # idempotent across writers
                path = os.path.join(d, f"part-{uuid.uuid4().hex[:12]}.csv")
                pacsv.write_csv(key_tbl, path + ".tmp", write_options=opts)
                os.replace(path + ".tmp", path)
                paths.append(path)
                keys.append(str(key))
                rows.append(key_tbl.num_rows)
        return pa.table(
            {
                "path": pa.array(paths, type=pa.string()),
                "key": pa.array(keys, type=pa.string()),
                "rows": pa.array(rows, type=pa.int64()),
            }
        )


def _key_slices(batch: pa.Table, key_col: str):
    """Contiguous runs of equal key (input is sorted by key) -> sub-tables."""
    import numpy as np

    arr = batch[key_col].combine_chunks().to_numpy(zero_copy_only=False)
    n = len(arr)
    change = (np.nonzero(arr[1:] != arr[:-1])[0] + 1).tolist()
    bounds = [0, *change, n]
    for s, e in zip(bounds[:-1], bounds[1:]):
        yield batch.slice(s, e - s)


def _write_partitioned_csv(
    ds: ray.data.Dataset,
    csv_dir: str,
    prefix: str,
    key_col: str,
    sort_cols: list[str],
    header: dict,
) -> list[str]:
    """Streaming per-batch writes, each batch sorted by (key, sort cols) —
    no exchange.  Batches of ``DEFAULT_BATCH_SIZE`` rows bound a writer's
    memory and coalesce the many small blocks of a graph union, so a label
    gets a few part files, not one per block.  Returns the written part
    paths (collected as tiny manifest rows, not data)."""
    manifest = ds.map_batches(
        _PartitionedCsvWriter(csv_dir, prefix, key_col, sort_cols, header),
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
    )
    return sorted(r["path"] for r in manifest.take_all())


def _safe_key(key) -> str:
    """Injective filesystem encoding of a partition key: percent-escape
    '%' then '/' so distinct keys (e.g. 'FOO/BAR' vs 'FOO_BAR') can never
    collapse into one partition directory (code-review r2)."""
    return str(key).replace("%", "%25").replace("/", "%2F")


def _unsafe_key(safe: str) -> str:
    """Inverse of ``_safe_key``."""
    return safe.replace("%2F", "/").replace("%25", "%")


def _write_import_artifacts(csv_dir: str, written: list[str]) -> list[str]:
    """Offline-import completion artifacts next to the CSVs (VERDICT r2
    next-round #5): ``schema.cypher`` holding the per-label uniqueness
    constraints and summary-embedding vector indices the reference creates
    live (``neo4j_manager.py:45-54`` constraints, ``:224-239`` 384-dim
    cosine indices — ours use the engine's EMBED_DIM), and ``import.sh``
    with the ``neo4j-admin database import`` argument list covering every
    node/edge partition written.  Together with the CSVs this is the whole
    bulk-import story: import, then apply the DDL."""
    from ..pipelines.enrich import EMBED_DIM

    labels, types = [], []
    for p in written:
        d = os.path.basename(os.path.dirname(p))
        if d.startswith("nodes_"):
            labels.append(_unsafe_key(d[len("nodes_") :]))
        elif d.startswith("edges_"):
            types.append(_unsafe_key(d[len("edges_") :]))
    labels = sorted(set(labels))
    types = sorted(set(types))

    lines = ["// generated by write_neo4j_bulk_csv — apply after bulk import",
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
        "# generated by write_neo4j_bulk_csv — run from this directory",
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
    return [schema_path, import_path]


def write_neo4j_bulk_csv(
    nodes: ray.data.Dataset, edges: ray.data.Dataset, csv_dir: str
) -> list[str]:
    """Per-label node CSV partitions + per-type edge CSV partitions in
    ``neo4j-admin database import`` layout: one directory per label/type
    holding ``header.csv`` (``:ID/:LABEL`` / ``:START_ID/:TYPE/:END_ID``)
    plus sorted part files (O4 stable-dump analog,
    ``compilation_parser.py:258-264``).

    One writer (the reference's ``batched-parallel`` K2 strategy,
    ``clangd_symbol_nodes_builder.py:126-146``): streaming per-batch
    writers, each batch sorted locally — many sorted part files per
    partition, no exchange and no driver-side materialization at any size.
    """
    os.makedirs(csv_dir, exist_ok=True)
    written = _write_partitioned_csv(
        nodes, csv_dir, "nodes", "label", ["node_id"], NEO4J_NODE_HEADER
    )
    written += _write_partitioned_csv(
        edges, csv_dir, "edges", "type", ["src", "dst"], NEO4J_EDGE_HEADER
    )
    _write_import_artifacts(csv_dir, written)
    return written


def _resolve_arrow_refs(ds: ray.data.Dataset) -> pa.Table:
    """Materialize a (small) dataset to one Arrow table on the driver."""
    import ray as _ray

    tables = _ray.get(ds.to_arrow_refs())
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default")


def validate_graph(out_dir: str) -> dict:
    """Graph invariants (FIXTURES.md F5): node_id unique; edge endpoints
    exist in nodes; no orphan nodes (A8 anti-join,
    ``neo4j_manager.py:124-128``).  Returns violation counts.  Test-scale
    validation utility (materializes id columns on the driver); the
    at-scale path is the same anti-join expressed as a groupby."""
    nodes = ray.data.read_parquet(os.path.join(out_dir, "nodes"))
    edges = ray.data.read_parquet(os.path.join(out_dir, "edges"))
    node_tbl = _resolve_arrow_refs(nodes.select_columns(["node_id"]))
    edge_tbl = _resolve_arrow_refs(edges.select_columns(["src", "dst"]))
    ids = node_tbl["node_id"].to_pylist()
    id_set = set(ids)
    srcs = edge_tbl["src"].to_pylist()
    dsts = edge_tbl["dst"].to_pylist()
    endpoint_set = set(srcs) | set(dsts)
    return {
        "duplicate_node_ids": len(ids) - len(id_set),
        "dangling_edges": sum(1 for x in srcs if x not in id_set)
        + sum(1 for x in dsts if x not in id_set),
        "orphan_nodes": len(id_set - endpoint_set),
    }
