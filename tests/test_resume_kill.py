"""F6 kill/restart resume test."""

from __future__ import annotations

import os
import re

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data

from clangd_to_neo4j_ray.sources.fixtures import generate_pages, write_pages_fixture
from clangd_to_neo4j_ray.state.checkpoint import StageCheckpoint, list_partitions


class _Boom(RuntimeError):
    pass


# what the graph sink writes: a retry-safe part per batch, or the one typed
# empty part of a partition without rows
SINK_PART = re.compile(r"part-([0-9a-f]{12}_\d{6}_\d{6}|empty)\.parquet")


def _assert_sink_outputs(ckpt: StageCheckpoint) -> None:
    """Every manifest entry's rows equal its Parquet footer row count, and
    the stage directory holds only the manifest and sink-named parts."""
    for pid, entry in ckpt.manifest.items():
        files = os.listdir(entry["output"])
        assert files and all(SINK_PART.fullmatch(f) for f in files), (pid, files)
        footer = sum(
            pq.ParquetFile(os.path.join(entry["output"], f)).metadata.num_rows
            for f in files
        )
        assert entry["rows"] == footer, pid
    assert sorted(os.listdir(ckpt.dir)) == sorted([*ckpt.manifest, "manifest.json"])


def test_resume_after_midrun_failure(tmp_path):
    """Simulated kill: the stage function raises while processing the 4th
    partition; a restart computes only the remaining partitions and the
    final outputs equal an uninterrupted run."""
    fx = generate_pages(120)
    pages = str(tmp_path / "pages")
    write_pages_fixture(fx, pages, num_files=6)

    calls = {"n": 0}

    def flaky(ds: ray.data.Dataset) -> ray.data.Dataset:
        calls["n"] += 1
        if calls["n"] == 4:
            raise _Boom("simulated kill")
        return ds.map_batches(
            lambda t: t.select(["url", "lang"]), batch_format="pyarrow"
        )

    ckpt = StageCheckpoint(str(tmp_path / "work"), "extract")
    with pytest.raises(_Boom):
        ckpt.run(pages, flaky)
    # 3 partitions completed before the crash; manifest persisted them
    done_before = set(ckpt.manifest)
    assert len(done_before) == 3

    _assert_sink_outputs(ckpt)
    # the killed run's half-written partition directory is still there
    killed = sorted(set(list_partitions(pages)) - done_before)[0]
    leftover = os.path.join(ckpt.dir, killed)
    os.makedirs(leftover + ".tmp")
    open(os.path.join(leftover + ".tmp", "partial.parquet"), "wb").close()

    # restart with a healthy fn: only the missing 3 are computed
    ckpt2 = StageCheckpoint(str(tmp_path / "work"), "extract")

    def healthy(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.map_batches(
            lambda t: t.select(["url", "lang"]), batch_format="pyarrow"
        )

    r = ckpt2.run(pages, healthy)
    assert set(r["skipped"]) == done_before
    assert len(r["computed"]) == 3
    assert sum(e["rows"] for e in ckpt2.manifest.values()) == 120
    _assert_sink_outputs(ckpt2)

    # outputs equal a fresh, uninterrupted run
    ckpt3 = StageCheckpoint(str(tmp_path / "work_fresh"), "extract")
    ckpt3.run(pages, healthy)
    a = ckpt2.output_dataset().to_pandas().sort_values("url").reset_index(drop=True)
    b = ckpt3.output_dataset().to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
