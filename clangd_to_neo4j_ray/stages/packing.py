"""Sequence packing + per-group top-k — training-data batch-assembly
operators over the ``documents`` table.

Extends the LLM-pipeline operator family (round 3): after cleaning and
dedup, a training pipeline assembles documents into fixed-token-budget
sequences ("packing") and curates per-source subsets ("top-k per group").
Both are deterministic and integer-exact so they carry full DuckDB oracles.

Reference lineage: packing generalizes the reference's batched-ingest
planning (client batches sized by ``cypher_tx_size`` and the avg-group-size
aggregate, ``clangd_symbol_nodes_builder.py:290-307``, ``input_params.py:33-36``)
from "rows per transaction" to "tokens per training sequence"; top-k per
group is the A4 head-probe (``clangd_symbol_nodes_builder.py:290-307``)
turned into a curation operator.

Scale notes: packing is order-dependent WITHIN a source by definition
(greedy prefix scan), and ``source`` is intrinsically LOW-cardinality, so
"one source = one reducer" serializes a corpus fraction into one Python
task at scale (VERDICT r3 #1).  The distributed plan below shards every
source into contiguous ``doc_id`` ranges and is EXACT — byte-identical to
the sequential greedy scan at any shard span (property-tested), because the
greedy state that crosses a shard boundary is tiny: (open pack id, open
pack fill).  Each shard independently emits an O(min(docs-in-one-budget,
budget)) carry-function summary; an O(shards) driver fold resolves the
boundary carries; a second pass assigns final pack ids.  Top-k
pre-aggregates per batch (each batch contributes at most k rows per source
to the exchange), so its reducer input is bounded by k x blocks regardless
of corpus size.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import defaultdict

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data

from ..sources.pages import read_pages
from .joins import collect
from .shuffle import _compat, exchange

PACK_BUDGET = 256  # tokens per packed training sequence (driver query)
TOP_K = 5  # docs kept per source (driver query)

# Contiguous doc_id range per packing shard.  65536 keeps shard counts (and
# the O(shards x summary) driver fold) tiny even at 10^10 docs while every
# shard stays far under a reducer's heap; tests force tiny spans to exercise
# multi-shard carry resolution at toy scale (the GRAFT_BUCKET_BYTES pattern).
PACK_SHARD_SPAN_DEFAULT = 1 << 16


def pack_shard_span() -> int:
    return int(
        os.environ.get("GRAFT_PACK_SHARD_SPAN", str(PACK_SHARD_SPAN_DEFAULT))
    )


def token_profile(ds: ray.data.Dataset) -> ray.data.Dataset:
    """docs (doc_id, text, source, ...) -> (source, doc_id, n_tokens) —
    whitespace token counts, one vectorized pass (token semantics shared
    with text_quality / the corpus profile scan: ``string_split(text, ' ')``).
    This is the corpus-dominant scan of the curation family; the
    checkpointed pipeline (pipelines/curate.py) runs it once per input
    partition and resumes from the manifest."""

    def counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = pc.add(
            pc.count_substring(batch["text"], pattern=" "), pa.scalar(1)
        )
        return pa.table(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    return ds.map_batches(counts, batch_format="pyarrow")


def _doc_tokens(sf_dir: str) -> ray.data.Dataset:
    """(source, doc_id, n_tokens) from the sf-dir documents table
    (column-pruned read + ``token_profile``)."""
    return token_profile(
        read_pages(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    )


def _shards(t: pa.Table):
    """((source, shard), rows in doc_id order) for every packing shard of
    an exchange's bucket range."""
    df = pl.from_arrow(t).sort("doc_id")
    return df.partition_by(["source", "__shard"], as_dict=True).items()


def _greedy_tables(toks: np.ndarray, budget: int):
    """Per-shard greedy-scan tables over ``toks`` (doc_id order, each >= 1).

    Returns ``(c, nxt, m, cnt_from, acc_from)``:

    - ``c``: cumulative sums, ``len(toks) + 1`` (``c[0] == 0``).
    - ``nxt[p]``: start of the next pack when a pack opens at doc ``p``
      (greedy: extend while the pack total stays <= budget; a pack always
      takes at least one doc, so oversized docs sit alone).
    - ``m``: absorb-window length — the number of leading docs whose prefix
      sum is < budget (an incoming open pack with fill >= 1 can absorb at
      most these; bounded by ``budget`` since every doc has >= 1 token).
    - ``cnt_from[a]`` / ``acc_from[a]`` for ``a`` in 0..m: pack count and
      final open-pack fill of the zero-state greedy packing of
      ``toks[a:]`` — the shard's carry function, tabulated only at the
      restart positions a boundary carry can actually select.

    The tabulation memoizes chain walks, so total work is O(n + m): the
    nxt-chains from all restart positions merge into previously visited
    positions.
    """
    n = len(toks)
    c = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(toks, out=c[1:])
    nxt = np.maximum(
        np.searchsorted(c, c[:n] + budget, side="right") - 1,
        np.arange(1, n + 1),
    )
    m = min(int(np.searchsorted(c, budget, side="left")) - 1, n)
    memo: dict[int, tuple[int, int]] = {n: (0, 0)}
    for a in range(m, -1, -1):
        path = []
        p = a
        while p not in memo:
            path.append(p)
            p = int(nxt[p])
        for q in reversed(path):
            nq = int(nxt[q])
            cnt_next, acc_next = memo[nq]
            memo[q] = (
                cnt_next + 1,
                acc_next if nq < n else int(c[n] - c[q]),
            )
    cnt_from = [memo[a][0] for a in range(m + 1)]
    acc_from = [memo[a][1] for a in range(m + 1)]
    return c, nxt, m, cnt_from, acc_from


def _breaks_from(nxt: np.ndarray, n: int, a: int) -> np.ndarray:
    """Pack-start positions of the zero-state greedy packing of docs[a:]."""
    bs = []
    p = a
    while p < n:
        bs.append(p)
        p = int(nxt[p])
    return np.asarray(bs, dtype=np.int64)


def pack_sequences(
    sf_dir: str, *, budget: int = PACK_BUDGET
) -> ray.data.Dataset:
    """Assign every document to a fixed-token-budget training sequence.

    Sequential greedy fill per source: docs in doc_id order accumulate
    into the current pack until adding the next doc would exceed
    ``budget``, then a new pack opens (docs longer than the budget get
    their own pack).  Output: (source, doc_id, n_tokens, pack_id) with
    pack_id dense from 0 per source — deterministic and integer-exact;
    the DuckDB oracle replays the identical greedy recursion with a
    recursive CTE in doc_id order.

    Physical plan (VERDICT r3 #1 — no one-reducer-per-source barrier):

    1. shard = doc_id // ``GRAFT_PACK_SHARD_SPAN`` — contiguous doc_id
       ranges, so ascending shard == ascending doc_id within a source;
    2. exchange keyed on (source, shard): each shard emits its compact
       carry-function summary (``_greedy_tables``), O(min(docs-per-budget,
       budget)) values per shard;
    3. O(shards) driver fold per source resolves the carry (open pack id,
       open pack fill) across shard boundaries: the carry picks the absorb
       count ``a`` from the prefix sums, and the shard's tabulated
       (cnt_from[a], acc_from[a]) advances the carry without touching rows;
    4. second exchange keyed on (source, shard) assigns final ids: first
       ``a`` docs join the incoming open pack, the rest get the zero-state
       packing of docs[a:] (an O(packs) break-chain walk + vectorized
       searchsorted — no per-row Python) offset by the resolved base.

    Exact at any span — a boundary carry only ever absorbs a prefix and
    restarts the scan at a tabulated position — so output is byte-identical
    to the single-reducer plan (property-tested with tiny forced spans).
    The reference analog is the batch-planning aggregate
    (clangd_symbol_nodes_builder.py:290-307).
    """
    return pack_tokens(_doc_tokens(sf_dir), budget=budget)


def _pack_plan(tok_in: ray.data.Dataset, budget: int):
    """Shared prefix of the sharded packing plan: the (source, shard)
    summary exchange plus the O(shards) driver carry fold.

    Returns ``(tok, res, fold_stats)``: the materialized sharded profile,
    the per-shard resolutions {(source, shard): (absorb_pid, absorb_count,
    base_pid)}, and per-source fold statistics {source: (n_packs, n_docs,
    sum_tokens)} — the fold knows every source's final pack count (pack
    ids are dense from 0, so n_packs = last open pack id + 1) without ever
    materializing per-doc assignments, which is how ``pack_stats`` runs on
    ONE exchange."""
    span = pack_shard_span()

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "__shard", pa.array(ids // span, type=pa.int64())
        )

    tok = (
        tok_in.map_batches(add_shard, batch_format="pyarrow")
        .materialize()  # two exchanges below read it; avoid lineage re-exec
    )

    def summarize(t: pa.Table) -> pa.Table:
        rows = []
        for (src, sh), grp in _shards(t):
            toks = grp["n_tokens"].to_numpy()
            c, _nxt, m, cnt_from, acc_from = _greedy_tables(toks, budget)
            rows.append(
                {
                    "source": src,
                    "shard": sh,
                    "n": len(toks),
                    "total": int(c[-1]),
                    "prefix": c[1 : m + 1].tolist(),
                    "cnt_from": cnt_from,
                    "acc_from": acc_from,
                }
            )
        return pa.Table.from_pylist(rows)

    summaries = collect(
        exchange(tok, ["source", "__shard"], summarize),
        "packing shard summaries",
    ).to_pylist()

    by_source: dict = defaultdict(list)
    for r in summaries:
        by_source[r["source"]].append(r)
    # (source, shard) -> (absorb_pid, absorb_count, base_pid)
    res: dict[tuple, tuple[int, int, int]] = {}
    # source -> (n_packs, n_docs, sum_tokens)
    fold_stats: dict = {}
    for src, rows in by_source.items():
        rows.sort(key=lambda r: r["shard"])
        open_pid, acc = -1, 0  # acc == 0 <=> no open pack (source start)
        for r in rows:
            n, prefix = int(r["n"]), list(r["prefix"])
            a = bisect_right(prefix, budget - acc) if acc > 0 else 0
            if a >= n:  # whole shard absorbed into the open pack
                res[(src, int(r["shard"]))] = (open_pid, n, open_pid + 1)
                acc += int(r["total"])
                continue
            base = open_pid + 1
            res[(src, int(r["shard"]))] = (open_pid, a, base)
            open_pid = base + int(r["cnt_from"][a]) - 1
            acc = int(r["acc_from"][a])
        fold_stats[src] = (
            open_pid + 1,
            sum(int(r["n"]) for r in rows),
            sum(int(r["total"]) for r in rows),
        )
    return tok, res, fold_stats


def pack_tokens(
    tok_in: ray.data.Dataset, *, budget: int = PACK_BUDGET
) -> ray.data.Dataset:
    """The sharded greedy-packing plan over an existing token-profile
    dataset (source, doc_id, n_tokens) — see ``pack_sequences`` for the
    algorithm; this entry point lets the checkpointed curation pipeline
    feed the resumable profile instead of re-reading documents."""
    tok, res, _stats = _pack_plan(tok_in, budget)
    res_ref = ray.put(res)

    def assign(t: pa.Table) -> pa.Table:
        rmap = ray.get(res_ref)
        outs = []
        for (src, sh), grp in _shards(t):
            toks = grp["n_tokens"].to_numpy()
            n = len(toks)
            absorb_pid, a, base = rmap[(src, sh)]
            pack = np.empty(n, dtype=np.int64)
            pack[:a] = absorb_pid
            if a < n:
                c = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(toks, out=c[1:])
                nxt = np.maximum(
                    np.searchsorted(c, c[:n] + budget, side="right") - 1,
                    np.arange(1, n + 1),
                )
                bs = _breaks_from(nxt, n, a)
                pack[a:] = base + (
                    np.searchsorted(bs, np.arange(a, n), side="right") - 1
                )
            outs.append(
                grp.select("source", "doc_id", "n_tokens").with_columns(
                    pack_id=pl.Series(pack)
                )
            )
        return _compat(pl.concat(outs).to_arrow())

    return exchange(tok, ["source", "__shard"], assign)


def pack_stats(sf_dir: str, *, budget: int = PACK_BUDGET) -> pa.Table:
    """Per-source packing efficiency: sequence count and mean fill.

    Output: (source, n_packs, n_docs, sum_tokens) — the planning statistic
    a training job reads before deciding budget/shard counts (avg-group-
    size planning analog).

    Runs on ONE exchange: the packing plan's own carry fold already knows
    every source's final pack count (pack ids are dense from 0), doc count
    and token total, so the stats come straight from the per-shard
    summaries — pass 2 (per-doc assignment) and the two aggregation
    exchanges the previous plan paid are never executed.  Exactness is
    pinned by the SQL oracle, which still derives the same numbers from
    the full recursive-CTE assignment."""
    _tok, _res, stats = _pack_plan(_doc_tokens(sf_dir), budget)
    rows = sorted(stats.items())
    return pa.table(
        {
            "source": pa.array([s for s, _ in rows], type=pa.string()),
            "n_packs": pa.array(
                [v[0] for _, v in rows], type=pa.int64()
            ),
            "n_docs": pa.array([v[1] for _, v in rows], type=pa.int64()),
            "sum_tokens": pa.array(
                [v[2] for _, v in rows], type=pa.int64()
            ),
        }
    )


def grouped_head_n(
    ds: ray.data.Dataset,
    group_col: str,
    sort_cols: list[str],
    ascending: list[bool],
    n: int,
    out_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """First ``n`` rows per group under a total order — the bounded-reducer
    top-n plan shared by ``top_docs_per_source`` and
    ``sampling.sample_stratified``: per-batch partial head-n first (each
    block ships at most n rows per group into the exchange, so reducer
    input is bounded by n x blocks at any input size), then the identical
    head-n per group inside one bucketed exchange.  ``sort_cols`` must be
    a total order (include a unique tiebreaker) for determinism."""

    def head(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(sort_cols, descending=[not a for a in ascending])
        out = df.filter(pl.int_range(pl.len()).over(group_col) < n)
        return _compat((out if out_cols is None else out.select(out_cols)).to_arrow())

    partials = ds.map_batches(head, batch_format="pyarrow")
    return exchange(partials, [group_col], head)


def top_docs_per_source(sf_dir: str, *, k: int = TOP_K) -> ray.data.Dataset:
    """The k longest documents of every source (curation top-k).

    Output: (source, doc_id, n_tokens), ties broken by ascending doc_id —
    fully deterministic, so the SQL oracle's row_number() ordering matches
    exactly.  Physical plan: ``grouped_head_n``."""
    return top_docs_tokens(_doc_tokens(sf_dir), k=k)


def top_docs_tokens(
    tok: ray.data.Dataset, *, k: int = TOP_K
) -> ray.data.Dataset:
    """``top_docs_per_source`` over an existing token-profile dataset."""
    return grouped_head_n(
        tok,
        "source",
        ["source", "n_tokens", "doc_id"],
        [True, False, True],
        k,
    )


QUALITY_P = 0.1  # drop docs below the per-source 10th percentile of length


def quality_filter_p10(sf_dir: str) -> ray.data.Dataset:
    """Per-source percentile quality gate: keep docs whose token count is
    at least the source's 10th-percentile token count (discrete quantile,
    DuckDB ``quantile_disc`` rank rule: 0-indexed ceil(q*n)-1).

    Output: (source, doc_id, n_tokens).  Plan: ONE bucketed exchange —
    per-batch partial (source, n_tokens) histograms combine per source
    into the exact discrete quantile inside the bucket (the
    ``lineitem_quantiles`` value-count pattern, generalized per group);
    the resulting per-source thresholds are bounded by source cardinality
    (the family's stated blocking-key assumption) and broadcast into a
    vectorized filter — no second wide operation."""
    return quality_filter_tokens(_doc_tokens(sf_dir))


def quality_filter_tokens(tok_in: ray.data.Dataset) -> ray.data.Dataset:
    """``quality_filter_p10`` over an existing token-profile dataset."""
    tok = tok_in.materialize()

    def hist_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["source", "n_tokens"])
            .group_by(["source", "n_tokens"])
            .aggregate([([], "count_all")])
            .rename_columns(["source", "n_tokens", "cnt"])
        )

    def thresholds(t: pa.Table) -> pa.Table:
        hist = (
            pl.from_arrow(t)
            .group_by("source", "n_tokens")
            .agg(pl.col("cnt").sum())
            .sort("source", "n_tokens")
            .with_columns(cum=pl.col("cnt").cum_sum().over("source"))
        )
        n = pl.col("cum").last()
        rank = ((QUALITY_P * n).ceil().cast(pl.Int64) - 1).clip(lower_bound=0)
        p10 = pl.col("n_tokens").filter(pl.col("cum") > rank).first()
        return _compat(hist.group_by("source").agg(p10.alias("p10")).to_arrow())

    th = exchange(
        tok.map_batches(hist_partial, batch_format="pyarrow"),
        ["source"],
        thresholds,
    )
    ref = ray.put(collect(th, "per-source quality thresholds"))

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        th = ray.get(ref)
        at = pc.index_in(batch["source"], value_set=th["source"].combine_chunks())
        return batch.filter(pc.greater_equal(batch["n_tokens"], th["p10"].take(at)))

    return tok.map_batches(keep, batch_format="pyarrow")


def _pack_oracle(budget: int) -> str:
    # DuckDB has no native greedy-fill window; express the identical greedy
    # recursion per source with a recursive CTE over doc_id order.  Bounded
    # by docs-per-source on the oracle side only (the test corpus).
    return f"""
WITH RECURSIVE t AS (
  SELECT source, doc_id,
         CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
),
packed(source, doc_id, n_tokens, rn, pack_id, acc) AS (
  SELECT source, doc_id, n_tokens, rn, CAST(0 AS BIGINT), n_tokens
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.source, t.doc_id, t.n_tokens, t.rn,
         CASE WHEN p.acc > 0 AND p.acc + t.n_tokens > {budget}
              THEN p.pack_id + 1 ELSE p.pack_id END,
         CASE WHEN p.acc > 0 AND p.acc + t.n_tokens > {budget}
              THEN t.n_tokens ELSE p.acc + t.n_tokens END
  FROM t JOIN packed p ON t.source = p.source AND t.rn = p.rn + 1
)
SELECT source, doc_id, n_tokens, pack_id FROM packed
"""


ORACLE_SQL: dict[str, str] = {
    "pack_sequences": _pack_oracle(PACK_BUDGET),
    "pack_stats": f"""
SELECT source, CAST(count(DISTINCT pack_id) AS BIGINT) AS n_packs,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS sum_tokens
FROM ({_pack_oracle(PACK_BUDGET)}) packed GROUP BY source
""",
    "quality_filter_p10": f"""
WITH t AS (
  SELECT source, doc_id,
         CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
q AS (
  SELECT source, quantile_disc(n_tokens, {QUALITY_P}) AS p10
  FROM t GROUP BY source
)
SELECT t.source, t.doc_id, t.n_tokens
FROM t JOIN q USING (source)
WHERE t.n_tokens >= q.p10
""",
    "top_docs_per_source": f"""
WITH t AS (
  SELECT source, doc_id,
         CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
r AS (
  SELECT *, row_number() OVER (
           PARTITION BY source ORDER BY n_tokens DESC, doc_id) AS rn
  FROM t
)
SELECT source, doc_id, n_tokens FROM r WHERE rn <= {TOP_K}
""",
}
