"""Parity tests for the dedup operator family vs DuckDB oracles, plus a
planted-duplicate behavioral test for the near-dup path."""

from __future__ import annotations

import pathlib

import pandas as pd
import pytest
import ray

from clangd_to_neo4j_ray.stages import dedup

from .util import assert_matches_oracle

QUERIES = [
    ("dedup_exact", dedup.dedup_exact),
    ("minhash_signatures", dedup.minhash_signatures),
    ("dedup_minhash_pairs", dedup.dedup_minhash_pairs),
    ("dedup_simhash", dedup.dedup_simhash),
    ("dedup_ngram_jaccard", dedup.dedup_ngram_jaccard),
    ("dedup_embedding_pairs", dedup.dedup_embedding_pairs),
]


@pytest.mark.parametrize("name,fn", QUERIES, ids=[q[0] for q in QUERIES])
def test_dedup_matches_oracle(name, fn, sf_dir):
    assert_matches_oracle(fn(sf_dir), dedup.ORACLE_SQL[name], sf_dir)


def test_minhash_finds_planted_near_dups(tmp_path):
    """Plant near-duplicate documents; MinHash-LSH must bucket them."""
    base = (
        "spark join filter sort merge window batch stream value key data row "
        "column table query agg group hash scan vector part line customer"
    )
    near = base.replace("customer", "order")  # one token differs at the end
    other = "completely different words entirely unrelated content here now ok"
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [base, near, other],
            "source": ["s0", "s0", "s0"],
        }
    )
    path = str(tmp_path / "documents.parquet")
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.Table.from_pandas(df), path)
    pairs = dedup.dedup_minhash_pairs(str(tmp_path)).take_all()
    assert {(p["a_doc"], p["b_doc"]) for p in pairs} == {(1, 2)}


def _brute_jaccard(df: pd.DataFrame) -> set:
    """Single-process all-pairs reference for the integer Jaccard predicate."""
    from clangd_to_neo4j_ray.stages.dedup import (
        JACCARD_DEN,
        JACCARD_NUM,
        _doc_shingles,
    )

    out = set()
    for src, g in df.groupby("source"):
        docs = sorted(zip(g["doc_id"], g["text"]))
        sets = [(d, _doc_shingles(t, 2)) for d, t in docs]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                di, si = sets[i]
                dj, sj = sets[j]
                ni, nu = len(si & sj), len(si | sj)
                if ni >= 1 and JACCARD_DEN * ni >= JACCARD_NUM * nu:
                    out.add((di, dj, ni, nu))
    return out


def test_ngram_jaccard_skewed_block(tmp_path):
    """VERDICT r1 #6: the inverted-index plan must equal brute-force even
    when 80% of docs pile into ONE source (the skew case the old all-pairs
    implementation choked on)."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = random.Random(13)
    vocab = [f"w{i}" for i in range(40)]
    rows = []
    for d in range(100):
        src = "hot" if d < 80 else f"s{d % 5}"
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 30)))
        rows.append((d, text, src))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "documents.parquet"))

    got = dedup.dedup_ngram_jaccard(str(tmp_path)).take_all()
    got_set = {
        (r["a_doc"], r["b_doc"], r["n_intersect"], r["n_union"]) for r in got
    }
    assert got_set == _brute_jaccard(df)
    assert len(got_set) > 50  # the hot block actually produces pairs


def test_embedding_pairs_chunked_equals_brute(tmp_path):
    """Chunk-grid streaming must equal the whole-label matmul."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.dedup import COSINE_DUP_THRESHOLD

    rng = np.random.RandomState(3)
    n, dim = 700, 16  # > EMBED_CHUNK so the grid has multiple cells
    m = rng.standard_normal((n, dim)).astype(np.float32)
    labels = rng.randint(0, 3, size=n).astype(np.int32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(list(m), type=pa.list_(pa.float32())),
            "label": pa.array(labels, type=pa.int32()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    got = dedup.dedup_embedding_pairs(str(tmp_path)).take_all()
    got_set = {(r["a_id"], r["b_id"]) for r in got}

    md = m.astype(np.float64)
    sims = (md @ md.T) / np.outer(
        np.linalg.norm(md, axis=1), np.linalg.norm(md, axis=1)
    )
    exp = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if labels[i] == labels[j] and sims[i, j] >= COSINE_DUP_THRESHOLD
    }
    assert got_set == exp
    assert len(got_set) > 0


def _worker_log_offsets() -> dict[pathlib.Path, int]:
    """Current size of each Ray worker's stderr log in the current Ray session."""
    logs = pathlib.Path(ray._private.worker.global_worker.node.get_logs_dir_path())
    return {f: f.stat().st_size for f in logs.glob("worker-*.err")}


def _worker_log_since(offsets: dict[pathlib.Path, int]) -> str:
    """What the workers wrote to stderr after ``offsets`` was taken."""
    out = []
    for f in _worker_log_offsets():
        with open(f, "rb") as fh:
            fh.seek(offsets.get(f, 0))
            out.append(fh.read().decode(errors="replace"))
    return "".join(out)


def test_ngram_jaccard_hot_shingle_chunked_exact(tmp_path, monkeypatch):
    """VERDICT r2 #2: one shingle shared by 50% of docs.  With
    POSTING_CHUNK forced tiny the hot posting list expands through the
    chunk-grid path (peak O(chunk^2) per cell, never the whole p^2 in one
    temporary) and must still equal brute-force exactly.  The pandas
    reducer's output feeds the pair-sum exchange without its pandas schema
    metadata, so no sort reduce fails to hash the block schemas."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = []
    for d in range(120):
        # every even doc shares the bigram "of the"; unique tail per doc
        text = (
            f"of the u{d}a u{d}b u{d}c"
            if d % 2 == 0
            else f"v{d}a v{d}b v{d}c v{d}d"
        )
        rows.append((d, text, "s0"))
    # plant a real near-dup pair among the hot-shingle docs
    rows.append((200, "of the same tail words here", "s0"))
    rows.append((201, "of the same tail words here too", "s0"))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "documents.parquet"))

    monkeypatch.setattr(dedup, "POSTING_CHUNK", 16)
    offsets = _worker_log_offsets()
    got = dedup.dedup_ngram_jaccard(str(tmp_path)).take_all()
    got_set = {
        (r["a_doc"], r["b_doc"], r["n_intersect"], r["n_union"]) for r in got
    }
    assert got_set == _brute_jaccard(df)
    assert (200, 201, 5, 6) in got_set  # the planted pair survives
    assert "Failed to hash the schemas" not in _worker_log_since(offsets)


def test_ngram_jaccard_df_cap_and_dead_letters(tmp_path):
    """The lossy scale mode: df_cap skips hot posting lists, and
    ngram_jaccard_dead_letters accounts for EXACTLY the skipped shingles
    (drop-vs-error, SURVEY §7.5).  Capped results must equal brute force
    computed over the non-hot shingles only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.dedup import JACCARD_DEN, JACCARD_NUM, _doc_shingles

    rows = []
    for d in range(40):
        text = f"of the x{d}p x{d}q" if d % 2 == 0 else f"y{d}p y{d}q y{d}r"
        rows.append((d, text, "s0"))
    rows.append((100, "of the common tail", "s0"))
    rows.append((101, "of the common tail again", "s0"))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "documents.parquet"))

    cap = 5
    dead = dedup.ngram_jaccard_dead_letters(str(tmp_path), df_cap=cap).take_all()
    dead_set = {(r["source"], r["s"], r["df"]) for r in dead}
    # exact expected dead letters: shingle df computed single-process
    from collections import Counter

    cnt = Counter()
    for _, r in df.iterrows():
        for s in _doc_shingles(r["text"], 2):
            cnt[(r["source"], s)] += 1
    exp_dead = {(src, s, n) for (src, s), n in cnt.items() if n > cap}
    assert dead_set == exp_dead and len(dead_set) >= 1

    got = dedup.dedup_ngram_jaccard(str(tmp_path), df_cap=cap).take_all()
    got_set = {
        (r["a_doc"], r["b_doc"], r["n_intersect"], r["n_union"]) for r in got
    }
    # brute force over capped shingle sets: intersections ignore hot
    # shingles, but per-doc set sizes (and thus unions) stay exact
    hot = {s for (_, s), n in cnt.items() if n > cap}
    docs = sorted(zip(df["doc_id"], df["text"]))
    sets = [(d, _doc_shingles(t, 2)) for d, t in docs]
    exp = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            di, si = sets[i]
            dj, sj = sets[j]
            ni = len((si & sj) - hot)
            nu = len(si) + len(sj) - ni
            if ni >= 1 and JACCARD_DEN * ni >= JACCARD_NUM * nu:
                exp.add((di, dj, ni, nu))
    assert got_set == exp


def test_dedup_clusters_semantics(sf_dir):
    """Cluster keep-list invariants on top of the oracle equality (which is
    checked in test_operators): pairs land in one cluster, reps are cluster
    minima, exactly one kept doc per cluster."""
    from clangd_to_neo4j_ray.stages.dedup import dedup_clusters, dedup_minhash_pairs

    cl = {r["doc_id"]: r for r in dedup_clusters(sf_dir).take_all()}
    pairs = dedup_minhash_pairs(sf_dir).take_all()
    assert len(pairs) >= 1  # non-vacuous at sf0.001+
    for p in pairs:
        assert cl[p["a_doc"]]["cluster_rep"] == cl[p["b_doc"]]["cluster_rep"]
    by_rep: dict = {}
    for r in cl.values():
        by_rep.setdefault(r["cluster_rep"], []).append(r)
    for rep, members in by_rep.items():
        assert rep == min(m["doc_id"] for m in members)
        kept = [m for m in members if m["is_kept"] == 1]
        assert len(kept) == 1 and kept[0]["doc_id"] == rep


def test_dedup_clusters_distributed_path(sf_dir):
    """Forcing the distributed CC path (threshold 0) must give the same
    keep-list as the driver union-find gate."""
    from clangd_to_neo4j_ray.stages.dedup import dedup_clusters

    a = sorted(
        (r["doc_id"], r["cluster_rep"], r["is_kept"])
        for r in dedup_clusters(sf_dir).take_all()
    )
    b = sorted(
        (r["doc_id"], r["cluster_rep"], r["is_kept"])
        for r in dedup_clusters(sf_dir, broadcast_threshold=0).take_all()
    )
    assert a == b


def test_dedup_cluster_quality_semantics(sf_dir):
    """Quality-aware keep-list invariants on top of the oracle equality
    (checked in test_operators): cluster membership matches
    ``dedup_clusters`` row-for-row, exactly one kept doc per cluster, and
    the winner is the member with max n_tokens (ties to min doc_id)."""
    from clangd_to_neo4j_ray.pipelines.corpus import dedup_cluster_quality
    from clangd_to_neo4j_ray.stages.dedup import dedup_clusters

    q = {r["doc_id"]: r for r in dedup_cluster_quality(sf_dir).take_all()}
    base = {r["doc_id"]: r for r in dedup_clusters(sf_dir).take_all()}
    assert set(q) == set(base)
    assert all(q[d]["cluster_rep"] == base[d]["cluster_rep"] for d in q)
    by_rep: dict = {}
    for r in q.values():
        by_rep.setdefault(r["cluster_rep"], []).append(r)
    multi = 0
    for rep, members in by_rep.items():
        kept = [m for m in members if m["is_kept"] == 1]
        assert len(kept) == 1
        best = min(members, key=lambda m: (-m["n_tokens"], m["doc_id"]))
        assert kept[0]["doc_id"] == best["doc_id"]
        multi += len(members) > 1
    assert multi >= 1  # non-vacuous: at least one real cluster at sf0.001+


def test_dedup_cluster_quality_distributed_path(sf_dir):
    """Forcing the distributed CC path (threshold 0) must give the same
    quality keep-list as the driver union-find gate."""
    from clangd_to_neo4j_ray.pipelines.corpus import dedup_cluster_quality

    a = sorted(
        tuple(r[k] for k in ("doc_id", "cluster_rep", "n_tokens", "is_kept"))
        for r in dedup_cluster_quality(sf_dir).take_all()
    )
    b = sorted(
        tuple(r[k] for k in ("doc_id", "cluster_rep", "n_tokens", "is_kept"))
        for r in dedup_cluster_quality(sf_dir, broadcast_threshold=0).take_all()
    )
    assert a == b
