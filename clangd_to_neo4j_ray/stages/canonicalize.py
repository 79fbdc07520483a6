"""Stage C: canonicalization — the single wide shuffle of the pipeline.

Triple dedup on (subj, pred, obj) with a deterministic min-url evidence
witness: the streaming-safe, order-independent replacement for Cypher
``MERGE`` idempotency (D5, ``clangd_call_graph_builder.py:39-44``) and the
reference's last-wins dict dedup (D1, ``clangd_index_yaml_parser.py:257-258``;
SURVEY §7.5 order-dependence note).

Skew handling (north_rule "salted groupby"): aggregation is **two-phase** —
a per-batch partial combine inside ``map_batches`` (phase 1; the batch is an
implicit salt, so a head key like a popular entity contributes at most one
row per block to the shuffle) followed by the global bucketed exchange
(phase 2).  The A4-style head-key probe is ``graph_algo.kg_head_entities``.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from .linking import DEAD_LETTER

TRIPLE_SCHEMA = pa.schema(
    [(c, pa.string()) for c in ("subj", "pred", "obj", "evidence_url")]
    + [("n_occurrences", pa.int64())]
)


def _partial_dedup(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: within-batch dedup of (subj, pred, obj)."""
    out = batch.group_by(["subj", "pred", "obj"]).aggregate(
        [("evidence_url", "min"), ([], "count_all")]
    )
    return out.rename_columns(["subj", "pred", "obj", "evidence_url", "n"])


def canonicalize_triples(candidates: ray.data.Dataset) -> ray.data.Dataset:
    """Candidate triples -> canonical deduped triples.

    Output: ``TRIPLE_SCHEMA`` rows, unique on (subj, pred, obj), evidence =
    lexicographic min url (deterministic witness).  Dead-letter rows are filtered here; ``dead_letter_stats``
    counts them.
    """
    from .shuffle import grouped_agg

    cands = candidates.map_batches(
        lambda t: t.filter(pa.compute.not_equal(t["pred"], DEAD_LETTER)),
        batch_format="pyarrow",
    )
    # large partial batches: better key reduction before the shuffle (a
    # 4k batch dedups ~0%, a 64k batch ~40% on the bench corpus)
    partials = cands.select_columns(["subj", "pred", "obj", "evidence_url"]).map_batches(
        _partial_dedup, batch_format="pyarrow", batch_size=65536
    )
    return grouped_agg(
        partials,
        ["subj", "pred", "obj"],
        {
            "evidence_url": ("evidence_url", "min"),
            "n_occurrences": ("n", "sum"),
        },
    )


def dead_letter_stats(candidates: ray.data.Dataset) -> pa.Table:
    """Dead-letter accounting (SURVEY §7.5 drop-vs-error): how many candidate
    rows were unresolvable, by predicate."""
    dl = candidates.map_batches(
        lambda t: t.filter(pa.compute.equal(t["pred"], DEAD_LETTER)),
        batch_format="pyarrow",
    )
    n = dl.count()
    return pa.table({"pred": pa.array([DEAD_LETTER]), "n": pa.array([n], type=pa.int64())})
