"""Parity tests for text / similarity / windows / relational operator families
vs their DuckDB oracles, driven through the central registry."""

from __future__ import annotations

import pyarrow as pa
import pytest

from clangd_to_neo4j_ray.queries import ORACLE, QUERIES

from .util import assert_matches_oracle

NAMES = [
    "kg_reachability",
    "kg_components",
    "kg_pagerank",
    "kg_head_entities",
    "kg_entity_salience",
    "kg_trending_entities",
    "events_daily_delta",
    "pii_scrub",
    "tfidf_top_terms",
    "embed_kmeans",
    "cluster_balanced_sample",
    "kmeans_inertia",
    "kmeans_label_agreement",
    "dedup_clusters",
    "dedup_cluster_quality",
    "dedup_rate_by_source",
    "text_quality",
    "text_langid",
    "langid_confusion",
    "trending_tokens",
    "source_overlap",
    "doc_length_hist",
    "source_length_quantiles",
    "text_token_totals",
    "vocab_top_tokens",
    "text_fingerprint",
    "split_train_val",
    "split_contamination",
    "curriculum_rank",
    "training_shuffle",
    "text_token_bpeish",
    "text_repetition",
    "source_mix_weights",
    "rag_chunks",
    "ann_brute_topk",
    "ann_lsh_topk",
    "ann_ivf_topk",
    "ann_recall",
    "enrich_documents",
    "enrich_rollup_sources",
    "enrich_project",
    "decontam_ngram",
    "decontam_dead_letters",
    "corpus_clean",
    "events_tumbling",
    "events_hopping",
    "events_asof",
    "events_sessions",
    "events_type_stats",
    "events_props_stats",
    "events_cohorts",
    "events_funnel",
    "events_interarrival",
    "events_watermark_lateness",
    "events_top_users",
    "source_lang_mix",
    "schema_profile",
    "q1_pricing_summary",
    "q3_top_orders",
    "top_parts_by_revenue",
    "customers_without_orders",
    "customer_order_totals",
    "nation_order_stats",
    "orders_rank_window",
    "lineitem_quantiles",
]


@pytest.mark.parametrize("name", NAMES)
def test_operator_matches_oracle(name, sf_dir):
    assert_matches_oracle(QUERIES[name](sf_dir), ORACLE[name], sf_dir)


def test_pii_scrub_redacts_every_marker(sf_dir):
    """Each doc gets exactly one injected doc_id-derived PII marker; the
    scrub must find it (count by kind matches doc_id % 3) — the oracle
    equality above then pins the cleaned text byte-for-byte via md5."""
    df = QUERIES["pii_scrub"](sf_dir).to_pandas()
    mod = df["doc_id"] % 3
    assert (df.loc[mod == 0, "n_emails"] >= 1).all()
    assert (df.loc[mod == 1, "n_phones"] >= 1).all()
    assert (df.loc[mod == 2, "n_ips"] >= 1).all()
    assert ((df["n_emails"] + df["n_phones"] + df["n_ips"]) >= 1).all()


def test_ann_lsh_recall(sf_dir):
    """LSH-bucketed ANN recall vs the exact brute-force top-k: with 4
    hyperplanes a query's own bucket holds ~1/16 of vectors; recall of the
    top-10 is imperfect by design — assert the machinery returns sane,
    bucket-consistent results with non-trivial overlap."""
    from clangd_to_neo4j_ray.stages.similarity import ann_brute_topk, ann_lsh_topk

    exact = ann_brute_topk(sf_dir).to_pandas()
    approx = ann_lsh_topk(sf_dir).to_pandas()
    assert set(approx.columns) == {"qid", "nid", "cos", "bucket"}
    # every (qid, nid) pair the LSH path scores must carry the same cosine
    merged = approx.merge(exact, on=["qid", "nid"], suffixes=("_a", "_e"))
    assert (merged["cos_a"] == merged["cos_e"]).all()
    assert len(approx) > 0


def test_ann_ivf_recall(sf_dir):
    """IVF-Flat ANN vs exact brute force: probing 4 of 16 inverted lists
    searches ~1/4 of the corpus, so top-10 recall is partial by design on
    near-uniform synthetic embeddings; cosines of whatever IS returned
    must be exact, every returned neighbor must come from a probed list,
    and recall must beat the uniform-scatter floor."""
    from clangd_to_neo4j_ray.stages.similarity import (
        N_CENTROIDS, ann_brute_topk, ann_ivf_topk)

    exact = ann_brute_topk(sf_dir).to_pandas()
    approx = ann_ivf_topk(sf_dir).to_pandas()
    assert set(approx.columns) == {"qid", "nid", "cos", "cid"}
    assert approx["cid"].between(0, N_CENTROIDS - 1).all()
    merged = approx.merge(exact, on=["qid", "nid"], suffixes=("_a", "_e"))
    assert (merged["cos_a"] == merged["cos_e"]).all()
    bs = set(zip(exact.qid, exact.nid))
    ivs = set(zip(approx.qid, approx.nid))
    assert len(bs & ivs) / len(bs) > 0.2  # uniform floor = probes/lists = 0.25


def test_ann_recall_report(sf_dir):
    """The registered recall query (VERDICT r3 #6): one row per
    (approximate method, query), recall consistent with the raw top-k sets
    and above the uniform-scatter floors of each method."""
    from clangd_to_neo4j_ray.stages.similarity import (
        N_QUERIES, TOP_K, ann_recall)

    rep = ann_recall(sf_dir).to_pandas()
    assert sorted(rep["method"].unique()) == ["ivf", "lsh"]
    assert len(rep) == 2 * N_QUERIES
    assert (rep["n_true"] == TOP_K).all()
    assert rep["n_hits"].between(0, TOP_K).all()
    assert (
        rep["recall_permille"] == rep["n_hits"] * 1000 // rep["n_true"]
    ).all()
    # IVF probes 4/16 lists; mean recall must beat the uniform floor
    assert rep[rep["method"] == "ivf"]["n_hits"].mean() / TOP_K > 0.2


def test_rag_chunks_long_docs_match_bruteforce(tmp_path):
    """Multi-chunk docs (incl. exact window/stride boundaries) vs a
    brute-force Python chunker — the sf corpora are mostly single-chunk,
    so this pins the overlap/stride arithmetic."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.text import CHUNK_S, CHUNK_W, rag_chunks

    lengths = [0, 1, CHUNK_W - 1, CHUNK_W, CHUNK_W + 1, CHUNK_S, 2 * CHUNK_S,
               CHUNK_W + CHUNK_S, 3 * CHUNK_W + 7]
    docs = {
        "doc_id": list(range(len(lengths))),
        "text": [" ".join(f"t{i}_{j}" for j in range(n)) for i, n in enumerate(lengths)],
        "lang": ["en"] * len(lengths),
        "source": ["s"] * len(lengths),
        "n_chars": [len(" ".join(f"t{i}_{j}" for j in range(n)))
                    for i, n in enumerate(lengths)],
    }
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(docs), sf / "documents.parquet")

    got = {
        (r["doc_id"], r["chunk_id"]): (r["n_tokens"], r["chunk_text"])
        for r in rag_chunks(str(sf)).take_all()
    }

    expected = {}
    for i, text in enumerate(docs["text"]):
        toks = text.split(" ")  # "" splits to [""], one 1-token chunk
        n = len(toks)
        k = (max(n - CHUNK_W, 0) + CHUNK_S - 1) // CHUNK_S + 1
        for c in range(k):
            window = toks[c * CHUNK_S: c * CHUNK_S + CHUNK_W]
            expected[(i, c)] = (len(window), " ".join(window))

    assert got == expected


def test_trending_tokens_semantics(ray_session, sf_dir):
    """Structural pins beyond oracle parity: at most k rows per minute,
    delta arithmetic is exact, and n_prev equals the token's TRUE full
    count in the previous minute (recomputed independently in DuckDB) —
    guards the single-exchange lag plan (the +1-minute carrier rows)
    against partial-count leakage."""
    from clangd_to_neo4j_ray.stages.text import TREND_K, trending_tokens

    rows = trending_tokens(sf_dir).take_all()
    assert rows
    per_minute: dict = {}
    for r in rows:
        assert r["delta"] == r["n"] - r["n_prev"]
        per_minute.setdefault(r["minute"], []).append(r)
    assert all(len(v) <= TREND_K for v in per_minute.values())

    from .util import duckdb_con

    con = duckdb_con(sf_dir)
    truth = con.sql(
        "SELECT CAST((1735689600 + doc_id) // 60 AS BIGINT) AS minute, tok,"
        " CAST(count(*) AS BIGINT) AS n FROM (SELECT doc_id,"
        " unnest(string_split(text, ' ')) AS tok FROM documents)"
        " GROUP BY 1, 2"
    ).df()
    con.close()
    full = {(m, t): n for m, t, n in truth.itertuples(index=False)}
    for r in rows:
        assert r["n"] == full[(r["minute"], r["tok"])]
        assert r["n_prev"] == full.get((r["minute"] - 1, r["tok"]), 0)


def test_source_lang_mix_shares_sum_sanely(ray_session, sf_dir):
    """Each source's doc counts sum to its corpus count and permille
    shares sum to <= 1000 (floor division) and > 1000 - n_langs."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.text import source_lang_mix

    rows = source_lang_mix(sf_dir).take_all()
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["source"])
    assert sum(r["n_docs"] for r in rows) == len(docs)
    per_src: dict = {}
    for r in rows:
        per_src.setdefault(r["source"], []).append(r["share_permille"])
    for shares in per_src.values():
        assert 1000 - len(shares) < sum(shares) <= 1000


def test_events_top_users_counts_are_true_totals(ray_session, sf_dir):
    """Reported counts equal the users' true per-type totals and each
    type reports exactly k rows (corpus has >> k users per type)."""
    from clangd_to_neo4j_ray.stages.windows import TOP_USERS_K, events_top_users

    from .util import duckdb_con

    rows = events_top_users(sf_dir).take_all()
    per_type: dict = {}
    for r in rows:
        per_type.setdefault(r["event_type"], []).append(r)
    con = duckdb_con(sf_dir)
    truth = {
        (et, u): n
        for et, u, n in con.sql(
            "SELECT event_type, user_id, count(*) FROM events GROUP BY 1, 2"
        ).fetchall()
    }
    con.close()
    for et, rs in per_type.items():
        assert len(rs) == TOP_USERS_K
        for r in rs:
            assert truth[(et, r["user_id"])] == r["n_events"]


def test_dedup_rate_with_planted_duplicates(ray_session, tmp_path):
    """The driver corpus has no exact duplicates (rate 0 everywhere), so
    the dup path is pinned here: source a has 4 docs over 2 distinct
    texts (500 permille), source b has 3 docs all distinct (0)."""
    import pyarrow as _pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.dedup import dedup_rate_by_source

    texts = ["x y", "x y", "z w", "z w", "p", "q", "r"]
    srcs = ["a", "a", "a", "a", "b", "b", "b"]
    t = _pa.table(
        {
            "doc_id": _pa.array(range(7), type=_pa.int64()),
            "text": _pa.array(texts),
            "lang": _pa.array(["en"] * 7),
            "source": _pa.array(srcs),
            "n_chars": _pa.array([len(s) for s in texts], type=_pa.int64()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    got = {
        r["source"]: (r["n_docs"], r["n_unique"], r["dup_permille"])
        for r in dedup_rate_by_source(str(d)).take_all()
    }
    assert got == {"a": (4, 2, 500), "b": (3, 3, 0)}


def test_watermark_lateness_matches_sequential_brute_force(ray_session, sf_dir):
    """Independent (non-SQL) pin of the sharded prefix-max plan: a
    sequential driver walk in arrival order reproduces the exact
    per-type late counts — exercises the cross-shard carries, since the
    256 hex shards each hold ~N/256 events."""
    import hashlib

    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.windows import (
        ARRIVAL_SEED,
        WATERMARK_DELAY_US,
        events_watermark_lateness,
    )

    ev = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"]
    )
    rows = list(
        zip(
            ev["event_id"].to_pylist(),
            ev["ts"].cast("int64").to_pylist(),
            ev["event_type"].to_pylist(),
        )
    )
    rows.sort(
        key=lambda r: (
            hashlib.md5(f"{r[0]}|{ARRIVAL_SEED}".encode()).hexdigest(),
            r[0],
        )
    )
    wm = None
    expect: dict = {}
    for _eid, ts, et in rows:
        n, late = expect.get(et, (0, 0))
        is_late = wm is not None and ts < wm - WATERMARK_DELAY_US
        expect[et] = (n + 1, late + int(is_late))
        wm = ts if wm is None else max(wm, ts)

    got = {
        r["event_type"]: (r["n_events"], r["n_late"])
        for r in events_watermark_lateness(sf_dir).take_all()
    }
    assert got == expect
    assert any(late > 0 for _n, late in expect.values())  # non-degenerate


def test_events_daily_delta_reconciles_with_type_stats(ray_session, sf_dir):
    """Daily volumes sum to the per-type totals, n_prev is the previous
    day's n wherever both days exist, and delta arithmetic is exact."""
    from clangd_to_neo4j_ray.stages.windows import (
        events_daily_delta,
        events_type_stats,
    )

    rows = events_daily_delta(sf_dir).take_all()
    totals: dict = {}
    by_key = {}
    for r in rows:
        assert r["delta"] == r["n"] - r["n_prev"]
        totals[r["event_type"]] = totals.get(r["event_type"], 0) + r["n"]
        by_key[(r["event_type"], r["day"])] = r["n"]
    for (et, day), n in by_key.items():
        prev = by_key.get((et, day - 1), 0)
        row = next(
            r for r in rows if r["event_type"] == et and r["day"] == day
        )
        assert row["n_prev"] == prev

    stats = events_type_stats(sf_dir).take_all()
    assert {r["event_type"]: r["n_events"] for r in stats} == totals


def test_training_shuffle_partitions_and_is_deterministic(ray_session, sf_dir):
    """Every doc appears exactly once, in-shard positions are 1..len per
    shard with no gaps, every shard is non-degenerate at this corpus
    size, and a second run reproduces the permutation exactly (no RNG
    state — the hash IS the permutation)."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.sampling import (
        SHUFFLE_SHARDS,
        training_shuffle,
    )

    rows = training_shuffle(sf_dir).take_all()
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    assert sorted(r["doc_id"] for r in rows) == sorted(docs["doc_id"].to_pylist())
    by_shard: dict = {}
    for r in rows:
        by_shard.setdefault(r["shard"], []).append(r["pos"])
    assert set(by_shard) <= set(range(SHUFFLE_SHARDS))
    assert len(by_shard) == SHUFFLE_SHARDS  # 500 docs / 16 shards: all hit
    for poss in by_shard.values():
        assert sorted(poss) == list(range(1, len(poss) + 1))

    again = training_shuffle(sf_dir).take_all()
    key = lambda r: (r["doc_id"], r["shard"], r["pos"])
    assert sorted(map(key, rows)) == sorted(map(key, again))


def test_curriculum_rank_is_a_permutation(ray_session, sf_dir):
    """Ranks are exactly 1..N with no gaps, and the order is the total
    order (n_chars desc, doc_id asc)."""
    from clangd_to_neo4j_ray.stages.sampling import curriculum_rank

    rows = curriculum_rank(sf_dir).take_all()
    ranks = sorted(r["rk"] for r in rows)
    assert ranks == list(range(1, len(rows) + 1))
    by_rank = sorted(rows, key=lambda r: r["rk"])
    keys = [(-r["n_chars"], r["doc_id"]) for r in by_rank]
    assert keys == sorted(keys)


def test_source_length_quantiles_semantics(ray_session, sf_dir):
    """Quantiles are actual per-source values, ordered p10 <= median <=
    p90, and exactly the rank-ceil(q*n) statistics of the raw column."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.text import source_length_quantiles

    rows = source_length_quantiles(sf_dir).take_all()
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    ).to_pandas()
    by_src = {s: sorted(g["n_chars"]) for s, g in docs.groupby("source")}
    assert {r["source"] for r in rows} == set(by_src)
    for r in rows:
        vals = by_src[r["source"]]
        n = len(vals)
        for col, num, den in (
            ("p10_chars", 1, 10),
            ("median_chars", 1, 2),
            ("p90_chars", 9, 10),
        ):
            assert r[col] == vals[(num * n + den - 1) // den - 1]
        assert r["p10_chars"] <= r["median_chars"] <= r["p90_chars"]


def test_doc_length_hist_totals(ray_session, sf_dir):
    """Histogram cells partition the corpus per source."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.text import doc_length_hist

    rows = doc_length_hist(sf_dir).take_all()
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["source"])
    assert sum(r["n_docs"] for r in rows) == len(docs)
    assert all(r["len_bucket"] >= 0 for r in rows)


def test_kmeans_readouts_reconcile_with_assignment(ray_session, sf_dir):
    """kmeans_inertia and kmeans_label_agreement both reconcile with the
    raw embed_kmeans assignment: identical cluster sets, sizes summing to
    the corpus, inertia equal to the per-cluster dist2 sums, agreement
    cells partitioning each cluster."""
    from clangd_to_neo4j_ray.stages.similarity import (
        embed_kmeans,
        kmeans_inertia,
        kmeans_label_agreement,
    )

    km = embed_kmeans(sf_dir).take_all()
    by_cluster: dict = {}
    for r in km:
        c = by_cluster.setdefault(r["cluster"], [0, 0])
        c[0] += 1
        c[1] += r["dist2"]

    inertia = {r["cluster"]: r for r in kmeans_inertia(sf_dir).take_all()}
    assert inertia.keys() == by_cluster.keys()
    for cl, (n, tot) in by_cluster.items():
        assert inertia[cl]["n_vecs"] == n
        assert inertia[cl]["inertia"] == tot
        assert inertia[cl]["mean_dist2"] == tot // n

    agree = kmeans_label_agreement(sf_dir).take_all()
    per_cluster_sum: dict = {}
    for r in agree:
        per_cluster_sum[r["cluster"]] = (
            per_cluster_sum.get(r["cluster"], 0) + r["n_vecs"]
        )
    assert per_cluster_sum == {cl: n for cl, (n, _) in by_cluster.items()}


def test_events_interarrival_totals_and_bucket_edges(ray_session, sf_dir):
    """Gap counts sum to n_events - n_users (one gap per consecutive pair
    per user), and a fixture pins the log2 bucket edges exactly at powers
    of two (gap 0s -> 0, 1s -> 1, 2s -> 1, 3s -> 2, 4s -> 2 ... under
    floor(log2(gap_sec + 1)))."""
    import pyarrow.parquet as pq
    import ray as _ray

    from clangd_to_neo4j_ray.stages.windows import events_interarrival

    rows = events_interarrival(sf_dir).take_all()
    ev = pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    n_users = len(set(ev["user_id"].to_pylist()))
    assert sum(r["n_gaps"] for r in rows) == len(ev) - n_users

    import os
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        gaps_sec = [0, 1, 2, 3, 4, 7, 8]  # buckets 0,1,1,2,2,3,3
        ts = [0]
        for g in gaps_sec:
            ts.append(ts[-1] + g * 1_000_000)
        t = pa.table(
            {
                "event_id": pa.array(range(len(ts)), type=pa.int64()),
                "ts": pa.array(ts, type=pa.timestamp("us")),
                "user_id": pa.array([1] * len(ts), type=pa.int64()),
                "event_type": pa.array(["e"] * len(ts), type=pa.string()),
                "value": pa.array([0.0] * len(ts)),
                "props": pa.array(["{}"] * len(ts), type=pa.string()),
            }
        )
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = {
            r["gap_bucket"]: r["n_gaps"]
            for r in events_interarrival(d).take_all()
        }
    assert got == {0: 1, 1: 2, 2: 2, 3: 2}


def test_kg_entity_salience_consistent_with_entity_nodes(ray_session, sf_dir):
    """Salience totals reconcile with kg_entity_nodes: same entity set,
    identical n_docs/n_mentions, and the position-discounted score is
    bounded by 1000 * n_mentions (first_pos >= 1)."""
    from clangd_to_neo4j_ray.pipelines.docs_kg import (
        kg_entity_nodes,
        kg_entity_salience,
    )

    sal = {r["name"]: r for r in kg_entity_salience(sf_dir).take_all()}
    nodes = {r["name"]: r for r in kg_entity_nodes(sf_dir).take_all()}
    assert sal.keys() == nodes.keys()
    for name, r in sal.items():
        assert r["n_docs"] == nodes[name]["n_docs"]
        assert r["n_mentions"] == nodes[name]["n_mentions"]
        assert r["entity_id"] == nodes[name]["entity_id"]
        assert 0 < r["salience"] <= 1000 * r["n_mentions"]


def test_source_overlap_pair_order_and_bounds(ray_session, sf_dir):
    """Pairs are strictly ordered (source_a < source_b, no diagonal and no
    mirrored duplicates) and every shared count is positive and bounded by
    the smaller side's distinct-shingle vocabulary."""
    from clangd_to_neo4j_ray.stages.text import source_overlap

    from .util import duckdb_con

    rows = source_overlap(sf_dir).take_all()
    assert rows
    seen = set()
    for r in rows:
        assert r["source_a"] < r["source_b"]
        assert r["n_shared"] >= 1
        key = (r["source_a"], r["source_b"])
        assert key not in seen
        seen.add(key)

    con = duckdb_con(sf_dir)
    vocab = dict(
        con.sql(
            "SELECT source, count(DISTINCT s) FROM (SELECT d.source,"
            " a.tok || ' ' || b.tok || ' ' || c.tok || ' ' || dd.tok ||"
            " ' ' || e.tok AS s FROM"
            " (SELECT doc_id, unnest(string_split(text,' ')) AS tok,"
            "  generate_subscripts(string_split(text,' '),1) AS i"
            "  FROM documents) a"
            " JOIN (SELECT doc_id, unnest(string_split(text,' ')) AS tok,"
            "  generate_subscripts(string_split(text,' '),1) AS i"
            "  FROM documents) b ON a.doc_id=b.doc_id AND b.i=a.i+1"
            " JOIN (SELECT doc_id, unnest(string_split(text,' ')) AS tok,"
            "  generate_subscripts(string_split(text,' '),1) AS i"
            "  FROM documents) c ON a.doc_id=c.doc_id AND c.i=a.i+2"
            " JOIN (SELECT doc_id, unnest(string_split(text,' ')) AS tok,"
            "  generate_subscripts(string_split(text,' '),1) AS i"
            "  FROM documents) dd ON a.doc_id=dd.doc_id AND dd.i=a.i+3"
            " JOIN (SELECT doc_id, unnest(string_split(text,' ')) AS tok,"
            "  generate_subscripts(string_split(text,' '),1) AS i"
            "  FROM documents) e ON a.doc_id=e.doc_id AND e.i=a.i+4"
            " JOIN documents d ON d.doc_id = a.doc_id) GROUP BY source"
        ).fetchall()
    )
    con.close()
    for r in rows:
        assert r["n_shared"] <= min(vocab[r["source_a"]], vocab[r["source_b"]])


def test_langid_confusion_totals(ray_session, sf_dir):
    """The confusion matrix partitions the corpus: cell counts sum to the
    document count and every labeled lang appears."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.text import langid_confusion

    rows = langid_confusion(sf_dir).take_all()
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["lang"])
    assert sum(r["n_docs"] for r in rows) == len(docs)
    assert {r["lang"] for r in rows} == set(docs["lang"].to_pylist())
    assert {r["lang_guess"] for r in rows} <= {"en", "other"}


def test_vocab_top_tokens_k_prefix(sf_dir):
    """The k parameter takes a deterministic prefix: the k=5 heavy hitters
    of every source are exactly the first 5 rows (by count desc, token
    asc) of the default-k result — pins the total order the oracle's
    row_number() relies on."""
    from clangd_to_neo4j_ray.stages.text import vocab_top_tokens

    full = vocab_top_tokens(sf_dir).take_all()
    small = vocab_top_tokens(sf_dir, k=5).take_all()
    assert small and full
    key = lambda r: (r["source"], -r["n"], r["tok"])
    by_src: dict = {}
    for r in sorted(full, key=key):
        by_src.setdefault(r["source"], []).append((r["tok"], r["n"]))
    got: dict = {}
    for r in sorted(small, key=key):
        got.setdefault(r["source"], []).append((r["tok"], r["n"]))
    assert set(got) == set(by_src)
    for src, rs in got.items():
        assert rs == by_src[src][:5]
        assert all(n >= 1 for _, n in rs)


def test_bigram_collocations_matches_oracle(ray_session, sf_dir):
    from clangd_to_neo4j_ray.stages import text as _text

    from .util import assert_matches_oracle

    assert_matches_oracle(
        _text.bigram_collocations(sf_dir),
        _text.ORACLE_SQL["bigram_collocations"],
        sf_dir,
    )


def test_bigram_collocations_lift_arithmetic(ray_session, sf_dir):
    """lift_permille recomputes exactly from independent DuckDB unigram /
    total counts, and the support floor holds."""
    from clangd_to_neo4j_ray.stages import text as _text

    from .util import duckdb_con, to_pandas

    df = to_pandas(_text.bigram_collocations(sf_dir))
    assert (df["n_xy"] >= _text.COLLOC_MIN_COUNT).all()
    con = duckdb_con(sf_dir)
    uni = dict(
        con.sql(
            "SELECT tok, count(*) FROM (SELECT unnest(string_split(text, ' '))"
            " AS tok FROM documents) GROUP BY tok"
        ).fetchall()
    )
    total = sum(uni.values())
    con.close()
    for _, r in df.head(25).iterrows():
        expect = (1000 * r["n_xy"] * total) // (uni[r["w1"]] * uni[r["w2"]])
        assert r["lift_permille"] == expect


def test_tfidf_top_terms_semantics(ray_session, sf_dir):
    """At most k keywords per doc; scores recompute exactly from
    independent DuckDB tf/df/N counts; within-doc ordering is total."""
    from clangd_to_neo4j_ray.stages import text as _text

    from .util import duckdb_con, to_pandas

    df = to_pandas(_text.tfidf_top_terms(sf_dir))
    per_doc = df.groupby("doc_id").size()
    assert (per_doc <= _text.TFIDF_K).all()
    con = duckdb_con(sf_dir)
    dfreq = dict(
        con.sql(
            "SELECT tok, count(DISTINCT doc_id) FROM (SELECT doc_id,"
            " unnest(string_split(text, ' ')) AS tok FROM documents)"
            " GROUP BY tok"
        ).fetchall()
    )
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    con.close()
    for _, r in df.head(25).iterrows():
        assert r["score_permille"] == (1000 * r["tf"] * n_docs) // dfreq[r["tok"]]
    # a doc with >= k distinct tokens keeps exactly k
    full = per_doc[per_doc == _text.TFIDF_K]
    assert len(full) > 0


def test_sample_weighted_matches_oracle_and_semantics(ray_session, sf_dir):
    from clangd_to_neo4j_ray.stages import sampling as _sampling

    from .util import assert_matches_oracle, duckdb_con, to_pandas

    assert_matches_oracle(
        _sampling.sample_weighted(sf_dir),
        _sampling.ORACLE_SQL["sample_weighted"],
        sf_dir,
    )
    df = to_pandas(_sampling.sample_weighted(sf_dir))
    con = duckdb_con(sf_dir)
    n_docs, n_long = con.sql(
        "SELECT count(*), count(*) FILTER (len(string_split(text, ' ')) >= "
        f"{_sampling.WEIGHT_TOKEN_CAP}) FROM documents"
    ).fetchone()
    con.close()
    # every always-keep doc (p == 1000) survives; the draw is a real subset
    assert (df["p_permille"] == 1000).sum() == n_long
    assert 0 < len(df) < n_docs
    # longer docs keep more often: mean kept length > corpus mean requires
    # the weighting to have acted (uniform draw would preserve the mean)
    assert (df["p_permille"] <= 1000).all() and (df["n_tokens"] > 0).all()


def test_inverted_index_matches_oracle(ray_session, sf_dir):
    from clangd_to_neo4j_ray.stages import text as _text

    from .util import assert_matches_oracle

    assert_matches_oracle(
        _text.inverted_index(sf_dir),
        _text.ORACLE_SQL["inverted_index"],
        sf_dir,
    )
    assert_matches_oracle(
        _text.inverted_index_dead_letters(sf_dir),
        _text.ORACLE_SQL["inverted_index_dead_letters"],
        sf_dir,
    )


def test_inverted_index_postings_sorted_and_capped(ray_session, sf_dir):
    from clangd_to_neo4j_ray.stages import text as _text

    from .util import to_pandas

    df = to_pandas(_text.inverted_index(sf_dir))
    assert len(df) > 0
    assert (df["df"] <= _text.POSTINGS_DF_CAP).all()
    for _, r in df.head(50).iterrows():
        ids = [int(x) for x in r["postings"].split(",")]
        assert ids == sorted(ids) and len(ids) == r["df"]
        assert len(set(ids)) == len(ids)
    dl = to_pandas(_text.inverted_index_dead_letters(sf_dir))
    assert (dl["df"] > _text.POSTINGS_DF_CAP).all()


def test_embed_kmeans_semantics(ray_session, sf_dir):
    """Every vector assigned exactly once; cluster ids stay within the K
    seeds; squared distances are non-negative and integer."""
    from clangd_to_neo4j_ray.stages import similarity as _sim

    from .util import to_pandas

    df = to_pandas(_sim.embed_kmeans(sf_dir))
    assert df["vec_id"].is_unique and len(df) == 500
    assert set(df["cluster"]) <= set(range(_sim.KMEANS_K))
    assert (df["dist2"] >= 0).all()
    # k-means over the 10-label synthetic mixture should produce more
    # than one non-trivial cluster
    sizes = df.groupby("cluster").size()
    assert len(sizes) >= 2 and sizes.max() < len(df)


def test_events_cohorts_semantics(ray_session, sf_dir):
    """Diagonal cells carry retention 1000 (every user is active in their
    first week); no activity cell precedes its cohort week; per-cohort
    user counts never exceed the cohort size."""
    from clangd_to_neo4j_ray.stages.windows import events_cohorts

    from .util import to_pandas

    df = to_pandas(events_cohorts(sf_dir))
    diag = df[df["week"] == df["cohort_week"]]
    assert len(diag) > 0 and (diag["retention_permille"] == 1000).all()
    assert (df["week"] >= df["cohort_week"]).all()
    size = diag.set_index("cohort_week")["n_users"]
    assert (df["n_users"] <= df["cohort_week"].map(size)).all()


def test_events_funnel_ordering_fixture(ray_session, tmp_path):
    """Hand-built events pin the strict after-ordering: clicks before the
    first signup never count, purchases before the qualifying click never
    count, and conversion is relative to step 1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.windows import events_funnel

    def ev(i, user, typ, minute):
        return {
            "event_id": i,
            "ts": minute * 60_000_000,
            "user_id": user,
            "event_type": typ,
            "value": 1.0,
            "props": "{}",
        }

    rows = [
        # user 1: full ordered funnel
        ev(0, 1, "signup", 0), ev(1, 1, "click", 10), ev(2, 1, "purchase", 20),
        # user 2: click BEFORE signup -> stops at step 1
        ev(3, 2, "click", 0), ev(4, 2, "signup", 10),
        # user 3: purchase before its click -> stops at step 2
        ev(5, 3, "signup", 0), ev(6, 3, "purchase", 5), ev(7, 3, "click", 10),
        # user 4: never signed up -> not even step 1
        ev(8, 4, "click", 0), ev(9, 4, "purchase", 10),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
            "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
            "event_type": pa.array([r["event_type"] for r in rows]),
            "value": pa.array([r["value"] for r in rows], pa.float64()),
            "props": pa.array([r["props"] for r in rows]),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "events.parquet")

    df = events_funnel(str(sf)).to_pandas().set_index("step")
    assert df.loc[1, "n_users"] == 3  # users 1, 2, 3
    assert df.loc[2, "n_users"] == 2  # users 1, 3
    assert df.loc[3, "n_users"] == 1  # user 1
    assert df.loc[3, "conversion_permille"] == 1000 // 3


def test_cluster_balanced_sample_quota(ray_session, sf_dir):
    """Per-cluster quota holds; small clusters keep everything; the
    sample is a subset of the full assignment."""
    from clangd_to_neo4j_ray.stages import similarity as _sim

    from .util import to_pandas

    full = to_pandas(_sim.embed_kmeans(sf_dir))
    samp = to_pandas(_sim.cluster_balanced_sample(sf_dir))
    sizes = full.groupby("cluster").size()
    got = samp.groupby("cluster").size()
    for c, n in got.items():
        assert n == min(_sim.KMEANS_SAMPLE_N, sizes[c])
    merged = samp.merge(full, on=["cluster", "vec_id", "dist2"])
    assert len(merged) == len(samp)


def test_schema_profile_nulls_and_distinct(ray_session, tmp_path):
    """Null handling pinned on a hand-built table (the sf corpora have no
    nulls): nulls are excluded from distinct/min/max but counted."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from clangd_to_neo4j_ray.stages.profiling import profile_table

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["a", None, "a", "b"]),
            "lang": pa.array([None, None, "en", "en"]),
            "source": pa.array(["s", "s", "s", "s"]),
            "n_chars": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    df = (
        profile_table(ray.data.read_parquet(str(sf / "documents.parquet")))
        .to_pandas()
        .set_index("col")
    )
    assert (df["n_rows"] == 4).all()
    assert df.loc["text", "n_nulls"] == 1 and df.loc["text", "n_distinct"] == 2
    assert df.loc["lang", "n_nulls"] == 2 and df.loc["lang", "n_distinct"] == 1
    assert df.loc["text", "min_str"] == "a" and df.loc["text", "max_str"] == "b"
    assert df.loc["source", "n_distinct"] == 1
