"""Corpus-clean pipeline — the composed training-data workflow.

The canonical LLM-corpus preparation chain, built entirely from this
engine's operators and run as ONE streaming dataflow:

    exact dedup (md5 groups, min-doc_id representative)
      -> MinHash-LSH near-dup prune (greedy keep-lowest-doc_id)
      -> integer-exact quality filter (length + type/token ratio)

The reference analog is the staged build of
``clangd_graph_rag_builder.py:56-76`` (each pass consumes the previous
pass's survivors); the dedup stages are D1/D5 generalized to documents
(SURVEY §2.6) and the quality gate is the M17/M18 heuristic-filter family.

Near-dup semantics (deterministic, single-pass — the standard greedy LSH
dedup): a document is dropped iff some LSH candidate pair (a, b) with
a < b has BOTH endpoints surviving exact dedup and the document is b.
Chains are not re-evaluated after drops (b dropped for a does not
resurrect c dropped for b) — identical on the Ray and SQL sides.

Everything is bucketed-exchange joins on doc_id: no driver-side id sets,
no broadcast of O(corpus) keys — the chain runs at any corpus size.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.dedup import _SQL_MINSIG, _SQL_SHINGLES3, _SQL_TOK, _read_docs, band_pairs
from ..stages.joins import bucketed_join
from ..stages.shuffle import _compat, exchange, grouped_agg

MIN_TOKENS = 20  # drop the shortest ~10% of documents
TYPE_RATIO_PCT = 35  # keep docs with >= 35% distinct tokens (int-exact)


def _doc_profiles(sf_dir: str) -> ray.data.Dataset:
    """ONE fused corpus scan feeding the whole chain (VERDICT r2 #4: the
    composed pipeline previously re-read + re-tokenized documents.parquet
    once per component query).  Per doc: content md5 (exact dedup), token
    totals (quality gate), and the LSH band signatures as a list column —
    ~150 bytes/doc vs the full text, so pinning it is cheap and every
    downstream stage reads the profile, never the corpus.  Fully
    vectorized (r5; VERDICT r4 #1): content md5 via the embedded DuckDB
    kernel, token stats via Arrow explode+group_by, band signatures via
    ``minhash_sig_cols`` — byte-identical to the old per-doc Python loop
    (pinned by the existing profile-vs-minhash_signatures parity test)."""
    from ..functions.duck import md5_hex_arrow
    from ..functions.textops import explode_tokens
    from ..stages.dedup import N_BANDS, interleave_band_sigs, minhash_sig_cols

    def prof(batch: pa.Table) -> pa.Table:
        flat, _pos, parents = explode_tokens(batch)
        n_rows = len(batch)
        ntok = np.bincount(parents, minlength=n_rows).astype(np.int64)
        per_tok = (
            pa.table({"p": pa.array(parents), "tok": flat})
            .group_by(["p", "tok"])
            .aggregate([([], "count_all")])
        )
        ntyp = np.bincount(
            per_tok["p"].to_numpy(zero_copy_only=False), minlength=n_rows
        ).astype(np.int64)
        row_idx, band_sigs = minhash_sig_cols(batch)
        flat_sigs = interleave_band_sigs(band_sigs)
        counts = np.zeros(n_rows, dtype=np.int64)
        counts[row_idx] = N_BANDS  # shingle-less docs keep empty lists
        offsets = np.concatenate([[0], np.cumsum(counts)])
        sig_list = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(flat_sigs, type=pa.string()),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_hash": md5_hex_arrow(batch["text"]),
                "n_tokens": pa.array(ntok),
                "n_types": pa.array(ntyp),
                "sigs": sig_list,
            }
        )

    return _read_docs(sf_dir).map_batches(prof, batch_format="pyarrow").materialize()


def _explode_sigs(batch: pa.Table) -> pa.Table:
    """Profile list column -> (doc_id, band, sig) rows (band = list index;
    shingle-less docs have empty lists and emit nothing) — byte-identical
    to ``minhash_signatures`` (tested)."""
    lens = pc.list_value_length(batch["sigs"]).to_numpy(zero_copy_only=False)
    lens = lens.astype(np.int64)
    doc_ids = np.repeat(
        batch["doc_id"].to_numpy(zero_copy_only=False), lens
    )
    ends = np.cumsum(lens)
    band = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) - np.repeat(
        ends - lens, lens
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "band": pa.array(band, type=pa.int64()),
            "sig": pc.list_flatten(batch["sigs"]),
        }
    )


def corpus_clean(sf_dir: str) -> ray.data.Dataset:
    """Survivor documents with their quality stats.

    Output: (doc_id, n_tokens, n_types), unique on doc_id."""
    prof = _doc_profiles(sf_dir)
    # reps fans out to three consumers (two semi joins + the anti join); a
    # lazy Dataset re-executes its exchange per consumer, so pin it once
    # (same rule as build_graph's shared intermediates).  It holds one
    # doc_id per unique document — ids only, object-store-resident and
    # spillable at any corpus size.
    reps = (
        grouped_agg(
            prof.select_columns(["text_hash", "doc_id"]),
            ["text_hash"],
            {"doc_id": ("doc_id", "min")},
        )
        .select_columns(["doc_id"])
        .materialize()
    )
    # candidate pairs straight from the per-(band, sig) expansion, WITHOUT
    # the cross-band distinct a standalone dedup_minhash_pairs pays: every
    # consumer below is a semi/anti-style membership check, so duplicate
    # (a, b) rows are harmless — one exchange fewer
    sigs = prof.select_columns(["doc_id", "sigs"]).map_batches(
        _explode_sigs, batch_format="pyarrow"
    )
    # restrict signatures to exact-dedup representatives BEFORE pair
    # expansion: every candidate pair then has both endpoints rep by
    # construction, replacing the r2 chain's two per-endpoint semi-joins
    # (one exchange instead of two, and the expansion sees fewer rows)
    rep_sigs = bucketed_join(sigs, reps, on="doc_id", how="semi")
    pairs = exchange(rep_sigs, ["band", "sig"], band_pairs)
    drop = pairs.map_batches(
        lambda t: pa.table({"doc_id": t["b_doc"]}), batch_format="pyarrow"
    )
    # survivors = reps MINUS drop, fused INTO the quality semi-join's
    # exchange: reps rows (flag +1) and drop rows (flag -1) ride the same
    # doc_id-keyed exchange, and the right_combine computes the surviving
    # id set per bucket (min flag == 1 <=> in reps and not dropped) — the
    # standalone anti-join exchange of the r2 chain is gone
    def _flag(v: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "flag", pa.array(np.full(len(t), v, dtype=np.int8))
            )

        return f

    membership = reps.map_batches(_flag(1), batch_format="pyarrow").union(
        drop.map_batches(_flag(-1), batch_format="pyarrow")
    )

    def _survivor_ids(df):
        return (
            df.group_by("doc_id")
            .agg(pl.col("flag").min().alias("mn"), pl.col("flag").max().alias("mx"))
            .filter((pl.col("mn") == 1) & (pl.col("mx") == 1))
            .select("doc_id")
        )

    quality = bucketed_join(
        prof.select_columns(["doc_id", "n_tokens", "n_types"]),
        membership,
        on="doc_id",
        how="semi",
        right_combine=_survivor_ids,
    )

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(t["n_tokens"], MIN_TOKENS),
            pc.greater_equal(
                pc.multiply(t["n_types"], pa.scalar(100, type=pa.int64())),
                pc.multiply(t["n_tokens"], pa.scalar(TYPE_RATIO_PCT, type=pa.int64())),
            ),
        )
        return t.filter(mask).select(["doc_id", "n_tokens", "n_types"])

    return quality.map_batches(keep, batch_format="pyarrow")


def dedup_cluster_quality(
    sf_dir: str, *, broadcast_threshold: int | None = None
) -> ray.data.Dataset:
    """Quality-aware near-dup keep-list: ``dedup_clusters``'s composition
    (LSH pairs -> connected components), but the kept representative is
    the highest-quality cluster member (max n_tokens, ties to min doc_id)
    instead of blindly min doc_id — what curation pipelines actually want
    (keep the longest page of a mirror set, not the first-crawled one).

    ONE fused corpus scan (the corpus_clean profile) feeds both the LSH
    signatures and the quality stats, so the text is read and tokenized
    exactly once; ``cluster_rep`` stays the min-doc_id component label
    (via the shared ``pairs_to_components``), so cluster identity matches
    ``dedup_clusters`` row-for-row.  Plan: profile scan -> LSH bucket
    exchange -> CC -> one bucketed left join (profile x components) ->
    one bucketed per-cluster group-agg; clusters hash whole into one
    bucket, so the winner flag is a single vectorized sort + first-of-key
    mask per bucket.

    Output: (doc_id, cluster_rep, n_tokens, is_kept) — one row per doc,
    exactly one is_kept=1 per cluster; singletons keep themselves."""
    from ..stages.dedup import minhash_pairs_from_sigs, pairs_to_components

    prof = _doc_profiles(sf_dir)
    comp = pairs_to_components(
        minhash_pairs_from_sigs(
            prof.map_batches(_explode_sigs, batch_format="pyarrow")
        ),
        broadcast_threshold=broadcast_threshold,
    )

    def assign(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "cluster_rep": pc.cast(
                    pc.coalesce(t["rep"], t["doc_id"]), pa.int64()
                ),
                "n_tokens": t["n_tokens"],
            }
        )

    asg = bucketed_join(
        prof.select_columns(["doc_id", "n_tokens"]),
        comp,
        on="doc_id",
        how="left",
    ).map_batches(assign, batch_format="pyarrow")

    def keep(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(
            ["cluster_rep", "n_tokens", "doc_id"], descending=[False, True, False]
        )
        kept = pl.col("cluster_rep").is_first_distinct().cast(pl.Int64)
        return _compat(
            df.select("doc_id", "cluster_rep", "n_tokens", is_kept=kept).to_arrow()
        )

    return exchange(asg, ["cluster_rep"], keep)


ORACLE_SQL: dict[str, str] = {
    "corpus_clean": f"""
WITH {_SQL_TOK}, {_SQL_SHINGLES3}, {_SQL_MINSIG},
reps AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
cand AS (
  SELECT DISTINCT a.doc_id AS a_doc, b.doc_id AS b_doc
  FROM sig a JOIN sig b
    ON a.band = b.band AND a.sig = b.sig AND a.doc_id < b.doc_id
),
dropped AS (
  SELECT DISTINCT c.b_doc AS doc_id
  FROM cand c
  JOIN reps ra ON ra.doc_id = c.a_doc
  JOIN reps rb ON rb.doc_id = c.b_doc
),
surv AS (
  SELECT doc_id FROM reps
  WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
),
q AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(DISTINCT tok) AS BIGINT) AS n_types
  FROM tok GROUP BY doc_id
)
SELECT q.doc_id, q.n_tokens, q.n_types
FROM q JOIN surv USING (doc_id)
WHERE q.n_tokens >= {MIN_TOKENS}
  AND 100 * q.n_types >= {TYPE_RATIO_PCT} * q.n_tokens
""",
    # same pairs + components CTEs as stages/dedup.ORACLE_SQL["dedup_clusters"]
    # (cluster identity must match row-for-row); the winner is picked by
    # quality instead of min doc_id.
    "dedup_cluster_quality": f"""
WITH RECURSIVE {_SQL_TOK}, {_SQL_SHINGLES3}, {_SQL_MINSIG},
pairs AS (
  SELECT DISTINCT a.doc_id AS a_doc, b.doc_id AS b_doc
  FROM sig a JOIN sig b
    ON a.band = b.band AND a.sig = b.sig AND a.doc_id < b.doc_id
),
und AS (SELECT a_doc AS a, b_doc AS b FROM pairs
        UNION SELECT b_doc, a_doc FROM pairs),
nodes AS (SELECT DISTINCT a AS n FROM und),
reach(n, m) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT u.b, r.m FROM reach r JOIN und u ON u.a = r.n
),
comp AS (SELECT n AS doc_id, min(m) AS rep FROM reach GROUP BY n),
tokc AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
asg AS (
  SELECT d.doc_id,
         CAST(COALESCE(c.rep, d.doc_id) AS BIGINT) AS cluster_rep,
         CAST(COALESCE(t.n, 0) AS BIGINT) AS n_tokens
  FROM documents d
  LEFT JOIN comp c ON d.doc_id = c.doc_id
  LEFT JOIN tokc t ON d.doc_id = t.doc_id
)
SELECT doc_id, cluster_rep, n_tokens,
       CAST(CASE WHEN row_number() OVER (
                 PARTITION BY cluster_rep
                 ORDER BY n_tokens DESC, doc_id) = 1
            THEN 1 ELSE 0 END AS BIGINT) AS is_kept
FROM asg
""",
}
