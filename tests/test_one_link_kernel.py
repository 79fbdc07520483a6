"""Guard: every build layer keeps the one path the build runs.

The columnar scan (``LinkScan``) is the only kernel the link stage runs;
the regex scanner (``EntityLinker``) is its test spec.  The per-token
scanner it replaced, alternative kernels selected by a keyword or an
environment variable, a second fused extract+link+merge composition, spare
CSV writers, a sink that reads its own Parquet back, single-valued build
options, a second incremental link path, a second Parquet writer, the
checkpoint's concurrency/force knobs, the graph layer's per-table
exchanges and writers, Dataset-to-driver collections outside the one
bounded drain (``joins.drain`` / ``joins.collect``), all-to-alls
outside the one exchange (``shuffle.exchange``), a second join envelope
path, pandas hops in the engine and readers of Ray's internal block
bundles outside ``shuffle.py`` must not come back."""

from __future__ import annotations

import ast
import inspect
import pathlib

import clangd_to_neo4j_ray
from clangd_to_neo4j_ray import context
from clangd_to_neo4j_ray.pipelines import build_graph as build_graph_mod
from clangd_to_neo4j_ray.pipelines import curate
from clangd_to_neo4j_ray.stages import canonicalize, linking, materialize
from clangd_to_neo4j_ray.state.checkpoint import StageCheckpoint

REPO = pathlib.Path(clangd_to_neo4j_ray.__file__).resolve().parent.parent
BANNED = (
    "linking_vec", "linking_ac", "LINK_STRATEGY", "BENCH_STRATEGY",
    "FusedExtractLinkPartial", "fused_link_partial_stage",
    "merge_partial_triples", "INGEST_STRATEGIES", "BENCH_CORE", "hash_shuffle",
    "_read_parquet_per_file", "_write_parquet_atomic", "_count_parquet_dir",
    "_link_partition", "_count_rows", "GRAFT_CKPT_CONCURRENCY",
    "fsspec_http_probe_safe", "hierarchy_dataset", "hierarchy_nodes",
    "hierarchy_edges", "entity_mention_pairs", "_partial_pairs", "_pairs_bucket",
    "_derive", "write_triples", "_collect_key_set_bounded", "_key_set_ref",
    "broadcast_bytes_limit", "GRAFT_BROADCAST_BYTES", "BOILERPLATE_SET_CAP_BYTES",
    "_drain(", "salted_group_sum", "state_blocks", "bucketed_group_agg",
    "grouped_sum", "_scan_token", "build_token_index", "_EDGE_PUNCT",
    "asof_join", "_static_schema", "emit_all", "SCHEMA_BUCKET",
)
PACKAGE = sorted((REPO / "clangd_to_neo4j_ray").rglob("*.py"))


def test_no_alternative_link_kernel_or_knob():
    files = PACKAGE + [REPO / "bench.py"]
    hits = [
        f"{path.relative_to(REPO)}:{n}: {word}"
        for path in files
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for word in BANNED
        if word in line
    ]
    assert hits == []


def test_link_stages_take_no_strategy():
    stages = {
        name: fn
        for name, fn in vars(linking).items()
        if name.endswith("_stage") and inspect.isfunction(fn)
    }
    assert set(stages) == {"link_scan_stage"}
    for name, fn in stages.items():
        assert "strategy" not in inspect.signature(fn).parameters, name


def _params(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def test_build_layers_take_no_single_valued_options():
    assert "strategy" not in _params(materialize.write_graph)
    assert _params(context.tune_data_context) == set()
    for fn in (
        linking.link_scan_stage,
        build_graph_mod.build_graph_datasets,
        build_graph_mod.build_graph,
    ):
        assert "concurrency" not in _params(fn), fn.__name__
    # a batch size on the link scan would split it from the read it fuses with
    assert "batch_size" not in _params(linking.link_scan_stage)
    assert "keep_dead_letters" not in _params(canonicalize.canonicalize_triples)


def test_checkpoint_path_writes_through_the_sink_and_takes_no_options():
    writers = [
        f"{path.relative_to(REPO)}:{n}"
        for path in PACKAGE
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ".write_parquet(" in line
    ]
    assert writers == []
    for fn in (
        StageCheckpoint.run,
        curate.profile_checkpointed,
        curate.curate_checkpointed,
    ):
        assert not _params(fn) & {"force", "max_concurrent"}, fn.__name__


# Dataset-to-driver hops (and a pandas round trip) that bypass joins.drain
DRIVER_HOPS = {
    "take_all", "iter_batches", "iter_rows", "from_pandas", "take_batch",
    "to_arrow_refs", "to_pandas_refs",
}


def test_driver_collections_go_through_the_bounded_drain():
    """Outside ``joins.py``, no module of ``stages/`` or ``pipelines/``
    collects a Dataset on the driver except through ``joins.drain`` /
    ``joins.collect`` (bounded by ``joins.BROADCAST_BYTES``), and no
    ``ray.put`` ref is tested for being a ref."""
    scope = [
        path
        for sub in ("stages", "pipelines")
        for path in sorted((REPO / "clangd_to_neo4j_ray" / sub).glob("*.py"))
        if path.name != "joins.py"
    ]
    hits = []
    for path in scope:
        src = path.read_text()
        where = path.relative_to(REPO)
        if "GRAFT_BROADCAST_BYTES" in src:
            hits.append(f"{where}: GRAFT_BROADCAST_BYTES")
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in DRIVER_HOPS:
                hits.append(f"{where}:{node.lineno}: {name}")
            elif name == "isinstance" and "ObjectRef" in ast.unparse(node):
                hits.append(f"{where}:{node.lineno}: isinstance(..., ObjectRef)")
    assert hits == []


def test_all_to_alls_go_through_the_one_exchange():
    """No module of ``stages/`` or ``pipelines/`` runs Ray's grouped
    shuffle (``map_groups``), imports a Ray aggregate, or repartitions:
    every all-to-all is ``shuffle.exchange``, whose fixed partition count
    already bounds the blocks of any exchange output.  (A Dataset
    ``groupby`` cannot be told from a pandas one statically.)"""
    scope = [
        path
        for sub in ("stages", "pipelines")
        for path in sorted((REPO / "clangd_to_neo4j_ray" / sub).glob("*.py"))
    ]
    hits = []
    for path in scope:
        where = path.relative_to(REPO)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("map_groups", "repartition"):
                    hits.append(f"{where}:{node.lineno}: {node.func.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                base = getattr(node, "module", None)
                names = [f"{base}.{a.name}" if base else a.name for a in node.names]
                if any(n.startswith("ray.data.aggregate") for n in names):
                    hits.append(f"{where}:{node.lineno}: ray.data.aggregate")
    assert hits == []


def test_engine_has_no_pandas_hop():
    """No module of ``stages/`` or ``pipelines/`` imports pandas or
    ``concurrent.futures``, calls ``to_pandas``, or maps with
    ``batch_format="pandas"``: every exchange reducer takes and returns
    Arrow, and no query runs Ray executions from driver threads."""
    scope = [
        path
        for sub in ("stages", "pipelines")
        for path in sorted((REPO / "clangd_to_neo4j_ray" / sub).glob("*.py"))
    ]
    hits = []
    for path in scope:
        where = path.relative_to(REPO)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                base = getattr(node, "module", None)
                names = [base] if base else [a.name for a in node.names]
                for n in names:
                    if n.split(".")[0] == "pandas" or n.startswith("concurrent.futures"):
                        hits.append(f"{where}:{node.lineno}: import {n}")
            elif isinstance(node, ast.Attribute) and node.attr == "to_pandas":
                hits.append(f"{where}:{node.lineno}: to_pandas")
            elif isinstance(node, ast.keyword) and node.arg == "batch_format":
                if isinstance(node.value, ast.Constant) and node.value.value == "pandas":
                    hits.append(f"{where}:{node.lineno}: batch_format='pandas'")
    assert hits == []


BLOCK_READERS = {"_logical_plan", "output_data", "to_arrow_refs", "get_internal_block_refs"}


def test_one_helper_reads_the_block_bundles():
    """Only ``stages/shuffle.py`` (its ``_materialized_bundles`` and the
    plan-size hint) reaches into a Dataset's logical plan or its block
    refs: ``joins.drain`` and ``drop_empty_blocks`` read a materialized
    input's blocks through that one helper."""
    hits = []
    for path in PACKAGE + [REPO / "bench.py"] + sorted((REPO / "scripts").glob("*.py")):
        if path == REPO / "clangd_to_neo4j_ray" / "stages" / "shuffle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in BLOCK_READERS:
                hits.append(f"{path.relative_to(REPO)}:{node.lineno}: {node.attr}")
    assert hits == []
