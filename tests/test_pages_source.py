"""The split source of stage 1 (``sources.pages.read_pages`` and
``sources.warc.read_warc``): its size estimate sizes the exchange, it
streams one Parquet row group per block, prunes columns, takes a
directory, a file or a list of files, and fuses with the build's stage 1
for both input formats."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
from clangd_to_neo4j_ray.sources.fixtures import generate_pages, write_pages_fixture
from clangd_to_neo4j_ray.sources.pages import SplitSource, read_pages, row_groups
from clangd_to_neo4j_ray.sources.warc import write_warc_files
from clangd_to_neo4j_ray.stages import shuffle

from .test_build_plan import BUILD_PLAN
from .util import count_executions


def _pages_dir(tmp_path, n_files: int = 6):
    fx = generate_pages(60)
    path = str(tmp_path / "pages")
    write_pages_fixture(fx, path, num_files=n_files)
    return fx, path, sorted(glob.glob(os.path.join(path, "*.parquet")))


def _blocks(ds) -> list[pa.Table]:
    return ray.get(ds.to_arrow_refs())


def _urls(ds) -> list[str]:
    return sorted(u for t in _blocks(ds) for u in t["url"].to_pylist())


def test_size_hint_is_at_least_the_files_bytes(tmp_path, monkeypatch):
    """The source reports the files' bytes, so the exchange's bucket count
    still follows the input: B passes the 32-bucket floor, and every file
    becomes its own split, under a tiny ``GRAFT_BUCKET_BYTES``."""
    _, path, files = _pages_dir(tmp_path)
    total = sum(os.path.getsize(f) for f in files)
    ds = read_pages(path)
    assert shuffle.dataset_size_hint(ds) >= total
    assert shuffle.auto_num_buckets(ds) == shuffle.DEFAULT_BUCKETS
    monkeypatch.setenv("GRAFT_BUCKET_BYTES", str(total // 100))
    assert shuffle.auto_num_buckets(read_pages(path)) > shuffle.DEFAULT_BUCKETS
    assert len(SplitSource(files, None).get_read_tasks(1)) == len(files)


def test_splits_follow_the_cpus_and_never_pass_the_files(tmp_path):
    """Small files: one split per CPU, at most one per file, each a
    contiguous run of whole files; the requested parallelism is ignored."""
    _, _, files = _pages_dir(tmp_path)
    cpus = int(ray.cluster_resources()["CPU"])
    tasks = SplitSource(files, None).get_read_tasks(200)
    assert len(tasks) == min(cpus, len(files))
    assert [f for t in tasks for f in t.metadata.input_files] == files
    assert len(SplitSource(files[:2], None).get_read_tasks(200)) == 2


def test_a_file_streams_one_table_per_row_group(tmp_path):
    """The read task yields a 3-row-group file as 3 tables, one at a time
    (Ray's block builder may join them into fewer output blocks)."""
    fx = generate_pages(30)
    path = str(tmp_path / "three.parquet")
    pq.write_table(fx.pages, path, row_group_size=10)
    assert pq.ParquetFile(path).metadata.num_row_groups == 3
    (task,) = SplitSource([path], row_groups).get_read_tasks(1)
    tables = list(task())
    assert [t.num_rows for t in tables] == [10, 10, 10]
    assert pa.concat_tables(tables).equals(fx.pages)
    assert pa.concat_tables(_blocks(read_pages(path))).equals(fx.pages)


def test_columns_are_pruned_at_the_read(tmp_path):
    _, path, _ = _pages_dir(tmp_path)
    for t in _blocks(read_pages(path, columns=["url", "lang"])):
        assert t.column_names == ["url", "lang"]


def test_a_directory_a_file_and_a_list_of_files_read_alike(tmp_path):
    fx, path, files = _pages_dir(tmp_path)
    want = sorted(fx.pages["url"].to_pylist())
    assert _urls(read_pages(path)) == want
    assert _urls(read_pages(files)) == want
    assert _urls(read_pages([path])) == want
    assert _urls(read_pages(files[0])) == sorted(
        pq.read_table(files[0])["url"].to_pylist()
    )


def test_warc_build_fuses_its_parse_with_stage_1(tmp_path, monkeypatch):
    """A WARC build parses each file inside its split's read task: the same
    one-execution plan as the Parquet build."""
    fx = generate_pages(40)
    warc = str(tmp_path / "warc")
    write_warc_files(fx.pages, warc, num_files=3)
    plans: list[list[str]] = []
    count_executions(monkeypatch, plans)
    build_graph(warc, fx.entities, str(tmp_path / "graph"), source_format="warc")
    assert plans == [BUILD_PLAN]
