"""F6 checkpoint/resume + incremental-update tests: dirty-partition recompute
yields the same final graph as a full rebuild and as ``build_graph``; resume
skips completed partitions."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
from clangd_to_neo4j_ray.pipelines.incremental import incremental_build
from clangd_to_neo4j_ray.sources.fixtures import generate_pages, write_pages_fixture


def _read_sorted(path_glob: str) -> pd.DataFrame:
    files = sorted(glob.glob(path_glob))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def _graph_frames(out_dir: str):
    return (
        _read_sorted(f"{out_dir}/nodes/*.parquet"),
        _read_sorted(f"{out_dir}/edges/*.parquet"),
        _read_sorted(f"{out_dir}/triples/*.parquet"),
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    fx = generate_pages(240)
    d = tmp_path_factory.mktemp("inc_pages")
    write_pages_fixture(fx, str(d), num_files=6)
    return fx, str(d)


def test_resume_skips_completed(corpus, tmp_path):
    fx, pages = corpus
    work = str(tmp_path / "work")
    out = str(tmp_path / "out")
    r1 = incremental_build(pages, fx.entities, work, out)
    assert len(r1["stage1"]["computed"]) == 6
    assert r1["stage1"]["skipped"] == []

    # second run: everything up to date, stage 1 fully skipped
    r2 = incremental_build(pages, fx.entities, work, str(tmp_path / "out2"))
    assert r2["stage1"]["computed"] == []
    assert len(r2["stage1"]["skipped"]) == 6

    n1, e1, t1 = _graph_frames(out)
    n2, e2, t2 = _graph_frames(str(tmp_path / "out2"))
    pd.testing.assert_frame_equal(n1, n2)
    pd.testing.assert_frame_equal(e1, e2)
    pd.testing.assert_frame_equal(t1, t2)


def test_incremental_equals_full_rebuild(corpus, tmp_path):
    import shutil

    fx, pages = corpus
    # v2 corpus: drop one partition, modify one, add one
    v2 = str(tmp_path / "pages_v2")
    os.makedirs(v2)
    parts = sorted(glob.glob(f"{pages}/*.parquet"))
    for p in parts[:-1]:  # drop the last partition
        shutil.copy(p, v2)
    # modify partition 0: keep only the first half of its rows
    t0 = pq.read_table(parts[0])
    pq.write_table(t0.slice(0, t0.num_rows // 2), os.path.join(v2, os.path.basename(parts[0])))
    # add a new partition from a fresh seed
    fx_new = generate_pages(40, seed=99)
    pq.write_table(fx_new.pages, os.path.join(v2, "part-new.parquet"))

    # incremental: reuse v1 work dir
    work = str(tmp_path / "work_inc")
    incremental_build(pages, fx.entities, work, str(tmp_path / "o_v1"))
    r = incremental_build(v2, fx.entities, work, str(tmp_path / "o_inc"))
    assert set(r["stage1"]["computed"]) == {"part-00000", "part-new"}
    assert len(r["stage1"]["purged"]) == 1
    assert len(r["stage1"]["skipped"]) == 4

    # full rebuild of v2 in a fresh work dir, and the in-memory full build
    incremental_build(v2, fx.entities, str(tmp_path / "work_full"), str(tmp_path / "o_full"))
    build_graph(v2, fx.entities, str(tmp_path / "o_build"), write_neo4j_csv=False)
    for full in ("o_full", "o_build"):
        for a, b in zip(
            _graph_frames(str(tmp_path / "o_inc")), _graph_frames(str(tmp_path / full))
        ):
            pd.testing.assert_frame_equal(a, b)

    # a corpus where no page mentions an entity: stage 1 is all empty and
    # the build publishes the hierarchy-only graph build_graph publishes
    silent = generate_pages(20)
    html = "<html><body><p>Nothing to link here.</p></body></html>".encode()
    silent.pages = silent.pages.set_column(
        silent.pages.column_names.index("html"), "html",
        pa.array([html] * silent.pages.num_rows, type=silent.pages["html"].type),
    )
    quiet = str(tmp_path / "pages_silent")
    write_pages_fixture(silent, quiet, num_files=2)
    work = str(tmp_path / "w_silent")
    r = incremental_build(quiet, silent.entities, work, str(tmp_path / "o_si"))
    assert len(r["stage1"]["computed"]) == 2
    assert r["manifest"]["stages"]["write_triples"]["rows"] == 0
    build_graph(quiet, silent.entities, str(tmp_path / "o_sb"), write_neo4j_csv=False)
    nodes, edges, triples = _graph_frames(str(tmp_path / "o_si"))
    assert len(nodes) and len(edges) and triples.empty
    for a, b in zip((nodes, edges, triples), _graph_frames(str(tmp_path / "o_sb"))):
        pd.testing.assert_frame_equal(a, b)


def test_link_partition_of_an_older_row_contract_is_recomputed(corpus, tmp_path):
    """A link partition checkpointed under an older row contract whose
    input fingerprint still matches is recomputed, not reused, and the
    build equals ``build_graph``'s: one of version 1 (tagged rows without
    the per-page rows, a manifest entry without a contract; reusing it
    would publish no PAGE nodes for its pages and dangling MENTIONS edges)
    and one of version 2 (the token scanner's rows, which miss mentions
    the regex spec finds)."""
    import json
    import shutil

    import pyarrow.compute as pc

    fx, pages = corpus
    work = str(tmp_path / "work")
    incremental_build(pages, fx.entities, work, str(tmp_path / "o_v1"))
    manifest_path = os.path.join(work, "link", "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    pid = sorted(manifest)[0]
    entry = manifest[pid]
    tagged = pq.read_table(entry["output"])
    older = tagged.filter(pc.not_equal(tagged["kind"], "page"))
    assert 0 < older.num_rows < tagged.num_rows
    shutil.rmtree(entry["output"])
    os.makedirs(entry["output"])
    pq.write_table(older, os.path.join(entry["output"], "part-0.parquet"))
    manifest[pid] = {
        "fingerprint": entry["fingerprint"],
        "output": entry["output"],
        "rows": older.num_rows,
        "wall_sec": entry["wall_sec"],
    }
    second = sorted(manifest)[1]
    manifest[second]["contract"] = 2
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)

    r = incremental_build(pages, fx.entities, work, str(tmp_path / "o_inc"))
    assert r["stage1"]["computed"] == [pid, second]
    assert len(r["stage1"]["skipped"]) == 4
    build_graph(pages, fx.entities, str(tmp_path / "o_build"), write_neo4j_csv=False)
    for a, b in zip(
        _graph_frames(str(tmp_path / "o_inc")), _graph_frames(str(tmp_path / "o_build"))
    ):
        pd.testing.assert_frame_equal(a, b)
