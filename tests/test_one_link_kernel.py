"""Guard: every build layer keeps the one path the build runs.

The token scanner is the only kernel the link stage runs; the regex
scanner is its test spec.  Alternative kernels selected by a keyword or an
environment variable, a second fused extract+link+merge composition, spare
CSV writers, a sink that reads its own Parquet back, single-valued build
options, a second incremental link path, a second Parquet writer, the
checkpoint's concurrency/force knobs and the graph layer's per-table
exchanges and writers must not come back."""

from __future__ import annotations

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
    "_derive", "write_triples",
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
