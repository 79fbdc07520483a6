"""Kill/resume checkpointing for the curation family (packing / quality /
top-k / sampling) — mirrors tests/test_resume_kill.py on the profile seam
(VERDICT r3 #7)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clangd_to_neo4j_ray.pipelines import curate
from clangd_to_neo4j_ray.state.checkpoint import StageCheckpoint


class _Boom(RuntimeError):
    pass


def _write_doc_partitions(root, n_files=5, docs_per_file=40):
    root.mkdir(parents=True, exist_ok=True)
    did = 0
    for f in range(n_files):
        rows = []
        for _ in range(docs_per_file):
            n = 3 + (did * 7) % 50
            rows.append((did, "w " * (n - 1) + "w", f"s{did % 3}"))
            did += 1
        df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
        pq.write_table(
            pa.Table.from_pandas(df), str(root / f"part{f:02d}.parquet")
        )
    return str(root)


def test_curate_resume_after_midrun_failure(tmp_path):
    """Simulated kill mid-profile: a restart computes only the missing
    partitions and every curation output equals an uninterrupted run."""
    docs = _write_doc_partitions(tmp_path / "docs")
    work = str(tmp_path / "work")

    calls = {"n": 0}

    def flaky_profile(ds):
        calls["n"] += 1
        if calls["n"] == 3:
            raise _Boom("simulated kill")
        return curate.token_profile(ds)

    ckpt = StageCheckpoint(work, curate.PROFILE_STAGE)
    with pytest.raises(_Boom):
        ckpt.run(docs, flaky_profile)
    assert len(ckpt.manifest) == 2  # two partitions persisted pre-crash

    # resumed run: exactly the remaining partitions compute
    out = curate.curate_checkpointed(docs, work)
    assert set(out["stats"]["skipped"]) == set(ckpt.manifest) or len(
        out["stats"]["skipped"]
    ) == 2
    assert len(out["stats"]["computed"]) == 3

    # a second invocation is a full skip (clean partitions never recompute)
    again = curate.curate_checkpointed(docs, work)
    assert again["stats"]["computed"] == []
    assert len(again["stats"]["skipped"]) == 5

    # outputs equal a fresh uninterrupted run in a new work dir
    fresh = curate.curate_checkpointed(docs, str(tmp_path / "work2"))
    for key, sort_cols in (
        ("packed", ["source", "doc_id"]),
        ("quality", ["source", "doc_id"]),
        ("top_docs", ["source", "doc_id"]),
        ("sample", ["source", "doc_id"]),
    ):
        a = out[key].to_pandas().sort_values(sort_cols).reset_index(drop=True)
        b = (
            fresh[key]
            .to_pandas()
            .sort_values(sort_cols)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


def test_curate_dirty_partition_recompute_and_purge(tmp_path):
    """Incremental semantics on the curation seam: editing one partition
    recomputes only it; deleting one purges its cached profile so no ghost
    docs survive into the curation outputs."""
    docs_dir = tmp_path / "docs"
    docs = _write_doc_partitions(docs_dir, n_files=4, docs_per_file=30)
    work = str(tmp_path / "work")
    first = curate.curate_checkpointed(docs, work)
    assert len(first["stats"]["computed"]) == 4

    # edit one partition (change one doc's text -> fingerprint changes)
    p = docs_dir / "part01.parquet"
    t = pq.read_table(str(p)).to_pandas()
    t.loc[0, "text"] = "x " * 99 + "x"
    pq.write_table(pa.Table.from_pandas(t), str(p))
    second = curate.curate_checkpointed(docs, work)
    assert second["stats"]["computed"] == ["part01"]
    assert len(second["stats"]["skipped"]) == 3
    packed = second["packed"].to_pandas()
    edited = packed[packed["doc_id"] == int(t.loc[0, "doc_id"])]
    assert edited["n_tokens"].tolist() == [100]

    # delete one partition -> purge; its docs vanish from the outputs
    removed_ids = set(
        pq.read_table(str(docs_dir / "part03.parquet"))["doc_id"].to_pylist()
    )
    (docs_dir / "part03.parquet").unlink()
    third = curate.curate_checkpointed(docs, work)
    assert third["stats"]["purged"] == ["part03"]
    remaining = set(third["packed"].to_pandas()["doc_id"])
    assert not (remaining & removed_ids)
