"""Similarity search over the ``embeddings`` table.

Brute-force cosine top-k as the exact baseline (numpy matmul per batch
against a broadcast query matrix — the canonical "small side via ray.put,
lookup inside map_batches" pattern), plus an LSH-bucketed approximate
variant as the scale path (random-hyperplane signs -> bucket groupby ->
within-bucket exact search).

The embedding model itself is the T3 analog (``llm_client.py:128-148``:
SentenceTransformer loaded once per worker); here embeddings are
pre-computed input, and the scorer state is the broadcast query matrix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.numerics import round_half_away

N_QUERIES = 5  # queries = embeddings with vec_id < N_QUERIES
TOP_K = 10
COS_DECIMALS = 6  # rank on rounded cosine; deterministic tie-break by vec_id
LSH_PLANES = 4  # hyperplane count for the approximate variant


def _read_embeddings(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _per_query_topk(partials: ray.data.Dataset, cols: list[str]) -> ray.data.Dataset:
    """The final top-``TOP_K`` per query over the scorers' per-batch
    partial top-k rows, ranked (cos desc, nid asc): one exchange on
    ``qid``, whose reducer ranks every query of its bucket range."""
    import polars as pl

    from .shuffle import _compat, exchange

    def per_range(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(
            ["qid", "cos", "nid"], descending=[False, True, False]
        )
        top = df.group_by("qid", maintain_order=True).head(TOP_K)
        return _compat(top.select(cols).to_arrow())

    return exchange(partials, ["qid"], per_range)


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Load the N_QUERIES query vectors (tiny driver-side read: the
    ``vec_id`` predicate is pushed down into the Parquet read)."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    m = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    return ids, m


class BruteForceScorer:
    """Actor-pool stage: per batch, cosine of every row vs the broadcast
    query matrix, emitting per-batch partial top-k per query."""

    def __init__(self, query_ref):
        qids, qm = ray.get(query_ref)
        self.qids = qids
        self.qm = qm
        self.qnorm = np.linalg.norm(qm, axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        m = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        sims = (self.qm @ m.T) / np.outer(self.qnorm, norms)  # (Q, B)
        sims = round_half_away(sims, COS_DECIMALS)
        q_out, n_out, c_out = [], [], []
        for qi, qid in enumerate(self.qids):
            row = sims[qi]
            mask = ids != qid  # exclude self
            order = np.lexsort((ids[mask], -row[mask]))[: TOP_K]
            sel = np.nonzero(mask)[0][order]
            q_out.extend([int(qid)] * len(sel))
            n_out.extend(ids[sel].tolist())
            c_out.extend(row[sel].tolist())
        return pa.table(
            {
                "qid": pa.array(q_out, type=pa.int64()),
                "nid": pa.array(n_out, type=pa.int64()),
                "cos": pa.array(c_out, type=pa.float64()),
            }
        )


def ann_brute_topk(sf_dir: str) -> ray.data.Dataset:
    """Exact cosine top-10 neighbors for each of the 5 query vectors.

    Output: (qid, nid, cos) — cos rounded to 6 dp; ranking by
    (cos desc, nid asc).  Per-batch partial top-k then one exchange on
    ``qid`` for the final top-k (no global sort of the full score matrix)."""
    ref = ray.put(_query_matrix(sf_dir))
    partials = _read_embeddings(sf_dir).map_batches(
        BruteForceScorer,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )

    return _per_query_topk(partials, ["qid", "nid", "cos"])


def _lsh_planes(dim: int, n_planes: int = LSH_PLANES) -> np.ndarray:
    """Deterministic hyperplanes (seeded; also embedded literally in the
    DuckDB oracle so the bucketing is SQL-reproducible)."""
    rng = np.random.RandomState(7)
    return rng.standard_normal((dim, n_planes))


def _bucket_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (m @ planes) > 0
    return signs.astype(np.int64) @ (1 << np.arange(planes.shape[1], dtype=np.int64))


class LshScorer:
    """Actor-pool stage for the scale ANN path: per batch, bucket every row
    by hyperplane signs and score it ONLY against queries sharing its
    bucket — per-batch partial top-k, never a whole bucket in one task."""

    def __init__(self, query_ref):
        qids, qm, planes = ray.get(query_ref)
        self.qids = qids
        self.qm = qm
        self.qnorm = np.linalg.norm(qm, axis=1)
        self.planes = planes
        self.q_buckets = _bucket_of(qm, planes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        m = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        buckets = _bucket_of(m, self.planes)
        norms = np.linalg.norm(m, axis=1)
        q_out, n_out, c_out, b_out = [], [], [], []
        for qi, qid in enumerate(self.qids):
            mask = (buckets == self.q_buckets[qi]) & (ids != qid)
            if not mask.any():
                continue
            sims = round_half_away(
                (self.qm[qi] @ m[mask].T) / (self.qnorm[qi] * norms[mask]),
                COS_DECIMALS,
            )
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -sims))[:TOP_K]
            q_out.extend([int(qid)] * len(order))
            n_out.extend(sub_ids[order].tolist())
            c_out.extend(sims[order].tolist())
            b_out.extend([int(self.q_buckets[qi])] * len(order))
        return pa.table(
            {
                "qid": pa.array(q_out, type=pa.int64()),
                "nid": pa.array(n_out, type=pa.int64()),
                "cos": pa.array(c_out, type=pa.float64()),
                "bucket": pa.array(b_out, type=pa.int64()),
            }
        )


def ann_lsh_topk(sf_dir: str, n_planes: int = LSH_PLANES) -> ray.data.Dataset:
    """Approximate top-k: random-hyperplane LSH bucketing, exact scoring
    only within each query's bucket.  Output: (qid, nid, cos, bucket),
    ranking (cos desc, nid asc), top-10 per query.

    The scale path vs ``ann_brute_topk``: each batch scores only the ~1/2^P
    of its rows that share a query's bucket, as a streaming partial top-k
    (an IVF-style candidate pruning; recall measured vs brute in tests)."""
    qids, qm = _query_matrix(sf_dir)
    # the registered DuckDB oracle embeds 64-dim plane literals generated
    # at import; a different corpus dim would silently diverge from it
    assert qm.shape[1] == 64, (
        f"embedding dim {qm.shape[1]} != 64: regenerate ORACLE_SQL"
        "['ann_lsh_topk'] via _lsh_oracle_sql(dim=...) for this corpus"
    )
    planes = _lsh_planes(qm.shape[1], n_planes)
    ref = ray.put((qids, qm, planes))
    partials = _read_embeddings(sf_dir).map_batches(
        LshScorer,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )

    return _per_query_topk(partials, ["qid", "nid", "cos", "bucket"])


N_CENTROIDS = 16  # IVF list count: sampled centroids = vec_ids [N_QUERIES, N_QUERIES+16)
N_PROBES = 4  # IVF probe width: each query searches its 4 nearest lists


class IvfScorer:
    """Actor-pool stage for the IVF-Flat scale path: every row is assigned
    to its nearest sampled centroid (rounded cosine, ties to the smallest
    centroid id — numpy argmax's first-max IS that tie-break), and scored
    only against queries probing that centroid's list.  Per-batch partial
    top-k, never a whole inverted list in one task."""

    def __init__(self, query_ref):
        qids, qm, cm = ray.get(query_ref)
        self.qids = qids
        self.qm = qm
        self.qnorm = np.linalg.norm(qm, axis=1)
        self.cm = cm
        cnorm = np.linalg.norm(cm, axis=1)
        # per-query probe set: N_PROBES nearest centroids by rounded cosine
        qc = round_half_away(
            (qm @ cm.T) / np.outer(self.qnorm, cnorm), COS_DECIMALS
        )
        self.probes = [
            set(np.lexsort((np.arange(cm.shape[0]), -qc[i]))[:N_PROBES].tolist())
            for i in range(len(qids))
        ]
        self.cnorm = cnorm

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        m = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        vc = round_half_away(
            (m @ self.cm.T) / np.outer(norms, self.cnorm), COS_DECIMALS
        )
        assign = np.argmax(vc, axis=1)  # first max = smallest cid tie-break
        q_out, n_out, c_out, l_out = [], [], [], []
        for qi, qid in enumerate(self.qids):
            mask = np.isin(assign, list(self.probes[qi])) & (ids != qid)
            if not mask.any():
                continue
            sims = round_half_away(
                (self.qm[qi] @ m[mask].T) / (self.qnorm[qi] * norms[mask]),
                COS_DECIMALS,
            )
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -sims))[:TOP_K]
            q_out.extend([int(qid)] * len(order))
            n_out.extend(sub_ids[order].tolist())
            c_out.extend(sims[order].tolist())
            l_out.extend(assign[mask][order].tolist())
        return pa.table(
            {
                "qid": pa.array(q_out, type=pa.int64()),
                "nid": pa.array(n_out, type=pa.int64()),
                "cos": pa.array(c_out, type=pa.float64()),
                "cid": pa.array(l_out, type=pa.int64()),
            }
        )


def ann_ivf_topk(sf_dir: str) -> ray.data.Dataset:
    """IVF-Flat approximate top-k: inverted lists from deterministic
    sampled centroids (the embeddings with vec_id in
    [N_QUERIES, N_QUERIES+N_CENTROIDS) — the k-means-free IVF init, fully
    SQL-reproducible), probe the N_PROBES nearest lists per query, exact
    cosine within probed lists.  Output: (qid, nid, cos, cid),
    ranking (cos desc, nid asc), top-10 per query.

    The second scale path beside ``ann_lsh_topk``: candidate volume is
    ~N_PROBES/N_CENTROIDS of the corpus per query, tunable independently
    of dimensionality (LSH bucket occupancy degrades at low n_planes)."""
    import pyarrow.parquet as pq

    # row-group-pushdown filters: only the 16 centroid rows reach the
    # driver, never the whole embeddings table (code-review r2)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[
            ("vec_id", ">=", N_QUERIES),
            ("vec_id", "<", N_QUERIES + N_CENTROIDS),
        ],
    )
    cm = np.stack(
        t.sort_by("vec_id")["embedding"].to_pylist()
    ).astype(np.float64)
    qids, qm = _query_matrix(sf_dir)
    ref = ray.put((qids, qm, cm))
    partials = _read_embeddings(sf_dir).map_batches(
        IvfScorer,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )

    return _per_query_topk(partials, ["qid", "nid", "cos", "cid"])


def ann_recall(sf_dir: str) -> pa.Table:
    """Recall@k of the approximate ANN paths vs the brute-force ground
    truth — the tuning curve a 100-TB user needs before picking
    ``N_PROBES`` / ``LSH_PLANES`` (VERDICT r3 #6; the reference analog is
    the --stats sanity-invariant pass, clangd_call_graph_builder.py:52-82).

    Output: (method, qid, n_true, n_hits, recall_permille), one row per
    (approximate method, query).  All three inputs are the already-oracled
    top-k queries; their results are bounded by query count x k by
    construction, so the final intersection runs driver-side on O(Q x k)
    rows — never on the corpus.  The three top-k queries run one after
    the other: run at once from driver threads, their actor pools hung
    a 2-CPU cluster."""
    import polars as pl

    from .joins import collect
    from .shuffle import _compat

    def topk(ds: ray.data.Dataset, what: str) -> pl.DataFrame:
        return pl.from_arrow(collect(ds, what)).select("qid", "nid").unique()

    truth = topk(ann_brute_topk(sf_dir), "brute-force top-k")
    n_true = truth.group_by("qid").agg(pl.len().cast(pl.Int64).alias("n_true"))
    reports = []
    for method, ds in (("ivf", ann_ivf_topk(sf_dir)), ("lsh", ann_lsh_topk(sf_dir))):
        got = topk(ds, f"{method.upper()} top-k")
        hits = truth.join(got, on=["qid", "nid"]).group_by("qid").agg(
            pl.len().cast(pl.Int64).alias("n_hits")
        )
        n_hits = pl.col("n_hits").fill_null(0)
        reports.append(
            n_true.join(hits, on="qid", how="left").select(
                method=pl.lit(method),
                qid=pl.col("qid").cast(pl.Int64),
                n_true="n_true",
                n_hits=n_hits,
                recall_permille=n_hits * 1000 // pl.col("n_true"),
            )
        )
    return _compat(pl.concat(reports).sort("method", "qid").to_arrow())


def _lsh_oracle_sql(dim: int = 64, n_planes: int = LSH_PLANES) -> str:
    """DuckDB oracle for ann_lsh_topk: the seeded hyperplanes are embedded
    as exact float64 literals, so bucket assignment and within-bucket
    cosine ranking are fully SQL-reproducible."""
    planes = _lsh_planes(dim, n_planes)
    rows = ",\n    ".join(
        f"({j}, [{', '.join(repr(float(v)) for v in planes[:, j])}]::DOUBLE[])"
        for j in range(n_planes)
    )
    return f"""
WITH planes(j, p) AS (VALUES
    {rows}
),
b AS (
  SELECT e.vec_id,
         CAST(sum(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.p) > 0
                       THEN (CAST(1 AS BIGINT) << p.j) ELSE 0 END) AS BIGINT) AS bucket
  FROM embeddings e CROSS JOIN planes p
  GROUP BY e.vec_id
),
q AS (SELECT e.vec_id AS qid, CAST(e.embedding AS DOUBLE[]) AS qe, b.bucket AS qb
      FROM embeddings e JOIN b ON b.vec_id = e.vec_id
      WHERE e.vec_id < {N_QUERIES}),
s AS (
  SELECT q.qid, e.vec_id AS nid,
         round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])),
               {COS_DECIMALS}) AS cos,
         q.qb AS bucket
  FROM q JOIN b ON b.bucket = q.qb JOIN embeddings e ON e.vec_id = b.vec_id
  WHERE e.vec_id != q.qid
)
SELECT qid, nid, cos, bucket FROM s
QUALIFY row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) <= {TOP_K}
"""


ORACLE_SQL: dict[str, str] = {
    "ann_brute_topk": f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id < {N_QUERIES}),
s AS (
  SELECT q.qid, e.vec_id AS nid,
         round(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                      CAST(e.embedding AS DOUBLE[])),
               {COS_DECIMALS}) AS cos
  FROM q, embeddings e WHERE e.vec_id != q.qid
)
SELECT qid, nid, cos FROM s
QUALIFY row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) <= {TOP_K}
""",
}
ORACLE_SQL["ann_lsh_topk"] = _lsh_oracle_sql()

ORACLE_SQL["ann_ivf_topk"] = f"""
WITH c AS (
  SELECT vec_id - {N_QUERIES} AS cid, CAST(embedding AS DOUBLE[]) AS ce
  FROM embeddings
  WHERE vec_id >= {N_QUERIES} AND vec_id < {N_QUERIES + N_CENTROIDS}
),
a AS (
  SELECT e.vec_id, c.cid,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), c.ce),
               {COS_DECIMALS}) AS cos
  FROM embeddings e CROSS JOIN c
),
assign AS (
  SELECT vec_id, cid FROM a
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY cos DESC, cid) = 1
),
q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
      FROM embeddings WHERE vec_id < {N_QUERIES}),
probes AS (
  SELECT q.qid, c.cid FROM q CROSS JOIN c
  QUALIFY row_number() OVER (
    PARTITION BY q.qid
    ORDER BY round(list_cosine_similarity(q.qe, c.ce), {COS_DECIMALS}) DESC,
             c.cid
  ) <= {N_PROBES}
),
s AS (
  SELECT q.qid, e.vec_id AS nid,
         round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])),
               {COS_DECIMALS}) AS cos,
         assign.cid
  FROM q
  JOIN probes ON probes.qid = q.qid
  JOIN assign ON assign.cid = probes.cid
  JOIN embeddings e ON e.vec_id = assign.vec_id
  WHERE e.vec_id != q.qid
)
SELECT qid, nid, cos, cid FROM s
QUALIFY row_number() OVER (PARTITION BY qid ORDER BY cos DESC, nid) <= {TOP_K}
"""

# recall of each approximate path vs brute truth: composed verbatim from the
# three already-registered oracles, so the metric is exactly "how much of the
# oracle-verified truth set the oracle-verified approximate set recovered"
ORACLE_SQL["ann_recall"] = f"""
WITH brute AS ({ORACLE_SQL["ann_brute_topk"]}),
approx AS (
  SELECT 'lsh' AS method, qid, nid FROM ({ORACLE_SQL["ann_lsh_topk"]})
  UNION ALL
  SELECT 'ivf' AS method, qid, nid FROM ({ORACLE_SQL["ann_ivf_topk"]})
),
truth AS (SELECT qid, CAST(count(*) AS BIGINT) AS n_true FROM brute GROUP BY qid),
hits AS (
  SELECT m.method, b.qid, CAST(count(a.nid) AS BIGINT) AS n_hits
  FROM (VALUES ('lsh'), ('ivf')) m(method)
  CROSS JOIN brute b
  LEFT JOIN approx a ON a.method = m.method AND a.qid = b.qid AND a.nid = b.nid
  GROUP BY m.method, b.qid
)
SELECT h.method, h.qid, t.n_true, h.n_hits,
       CAST((h.n_hits * 1000) // t.n_true AS BIGINT) AS recall_permille
FROM hits h JOIN truth t USING (qid)
"""


# ---------------------------------------------------------------------------
# Distributed k-means (Lloyd's algorithm, integer-exact)
# ---------------------------------------------------------------------------

KMEANS_K = 8  # clusters
KMEANS_ITERS = 3  # Lloyd update rounds (fixed so the oracle can unroll)
KMEANS_SCALE = 1 << 20  # fixed-point quantization of the float32 inputs


def _quantize_batch(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, int64 matrix) — ``floor(float64(x) * SCALE)`` exactly as
    the oracle's ``CAST(floor(CAST(e AS DOUBLE) * SCALE) AS BIGINT)``."""
    ids = batch["vec_id"].to_numpy(zero_copy_only=False)
    m = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
    q = np.floor(m * KMEANS_SCALE).astype(np.int64)
    return ids, q


def _assign(q: np.ndarray, cluster_ids: np.ndarray, cents: np.ndarray):
    """Nearest centroid per row (squared L2, integer-exact); ties go to the
    lowest cluster id because ``cluster_ids`` is sorted and argmin takes
    the first minimum.  int64 headroom: diff <= 2^21, squared <= 2^42,
    x 64 dims <= 2^48."""
    d = q[:, None, :] - cents[None, :, :]  # (B, k, dim)
    dist = np.einsum("bkd,bkd->bk", d, d)
    j = np.argmin(dist, axis=1)
    return cluster_ids[j], dist[np.arange(len(q)), j]


def embed_kmeans(sf_dir: str, *, with_label: bool = False) -> ray.data.Dataset:
    """Distributed Lloyd's k-means over the embedding column — the corpus
    clustering stage of a curation pipeline (domain discovery / cluster-
    balanced sampling), integer-exact end to end so the full iterative
    algorithm is DuckDB-oracle-checkable (same fixed-point discipline as
    the PageRank family, stages/graph_algo.py).

    Embeddings are quantized to int64 (floor(x * 2^20)); init centroids
    are the K lowest vec_ids; each of the KMEANS_ITERS rounds is one
    streaming assignment scan emitting O(k x dim) partial sums per batch
    + ONE bounded exchange (grouped sum over (cluster, dim)); the new
    integer centroid is the driver-side floor-division of the k x dim
    fold (empty clusters drop, mirroring the oracle's inner join).  A
    final scan emits (vec_id, cluster, dist2).  Nothing corpus-sized ever
    leaves the workers: per-round driver state is k x dim int64.

    Output: (vec_id, cluster, dist2) with dist2 the squared quantized
    L2 distance to the final centroid.

    The fitted (cluster_ids, centroids) — k x dim driver state — are
    memoized per (path, mtime, size) of the embeddings file, so the
    inertia / label-agreement / balanced-sample readouts share ONE fit
    per session instead of re-running the iterative rounds (~4 s at
    sf0.1 each); the final assignment scan still streams per call."""
    cluster_ids, cents = _kmeans_fit(sf_dir)
    ds = _read_embeddings(sf_dir)

    ref = ray.put((cluster_ids, cents))

    def final_assign(batch: pa.Table, _ref=ref) -> pa.Table:
        cids, c = ray.get(_ref)
        ids, q = _quantize_batch(batch)
        assign, dist2 = _assign(q, cids, c)
        out = {
            "vec_id": pa.array(ids.astype(np.int64)),
            "cluster": pa.array(assign.astype(np.int64)),
            "dist2": pa.array(dist2.astype(np.int64)),
        }
        if with_label:
            out["label"] = pc.cast(batch["label"], pa.int64())
        return pa.table(out)

    return ds.map_batches(final_assign, batch_format="pyarrow")


_KMEANS_FIT_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _kmeans_fit(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Run the KMEANS_ITERS iterative rounds and return the fitted
    (cluster_ids, centroids), memoized on the embeddings file identity."""
    import os

    path = f"{sf_dir}/embeddings.parquet"
    st = os.stat(path)
    key = (os.path.abspath(path), st.st_mtime_ns, st.st_size)
    hit = _KMEANS_FIT_CACHE.get(key)
    if hit is not None:
        return hit

    from .joins import collect
    from .shuffle import grouped_agg

    ds = _read_embeddings(sf_dir)

    # init: the K lowest vec_ids (tiny bounded driver read, the predicate
    # pushed down into the Parquet read as in _query_matrix)
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", KMEANS_K)],
    ).sort_by("vec_id")
    cluster_ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cents = np.floor(
        np.stack(t["embedding"].to_pylist()).astype(np.float64) * KMEANS_SCALE
    ).astype(np.int64)

    for _ in range(KMEANS_ITERS):
        ref = ray.put((cluster_ids, cents))

        def partials(batch: pa.Table, _ref=ref) -> pa.Table:
            cids, c = ray.get(_ref)
            _ids, q = _quantize_batch(batch)
            assign, _d = _assign(q, cids, c)
            k, dim = c.shape
            pos = np.searchsorted(cids, assign)
            sums = np.zeros((k, dim), dtype=np.int64)
            np.add.at(sums, pos, q)
            cnt = np.bincount(pos, minlength=k).astype(np.int64)
            live = cnt > 0
            kk = int(live.sum())
            return pa.table(
                {
                    "cluster": pa.array(np.repeat(cids[live], dim)),
                    "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), kk)),
                    "s": pa.array(sums[live].reshape(-1)),
                    "cnt": pa.array(np.repeat(cnt[live], dim)),
                }
            )

        fold = collect(
            grouped_agg(
                ds.map_batches(partials, batch_format="pyarrow"),
                ["cluster", "dim"],
                {"s": ("s", "sum"), "cnt": ("cnt", "sum")},
            ),
            "k-means centroid fold",
        ).sort_by([("cluster", "ascending"), ("dim", "ascending")])
        cluster_ids = np.unique(fold["cluster"].to_numpy(zero_copy_only=False))
        dim = int(pa.compute.max(fold["dim"]).as_py()) + 1
        s = fold["s"].to_numpy(zero_copy_only=False).reshape(len(cluster_ids), dim)
        cnt = (
            fold["cnt"].to_numpy(zero_copy_only=False).reshape(len(cluster_ids), dim)
        )
        cents = s // cnt  # numpy floor-divides (the oracle mirrors with CASE)

    _KMEANS_FIT_CACHE[key] = (cluster_ids, cents)
    return cluster_ids, cents


def kmeans_inertia(sf_dir: str) -> ray.data.Dataset:
    """Per-cluster k-means quality readout (the elbow/diagnostic table):
    cluster size, total inertia (sum of squared quantized distances) and
    its integer mean.

    Output: (cluster, n_vecs, inertia, mean_dist2 = inertia // n_vecs).
    Plan: rides the ``embed_kmeans`` final assignment scan; the per-block
    combine of the one extra aggregate bounds its exchange to O(k) rows
    per block."""
    from .shuffle import grouped_agg

    km = embed_kmeans(sf_dir)
    folded = grouped_agg(
        km, ["cluster"], {"n_vecs": ("dist2", "size"), "inertia": ("dist2", "sum")}
    )

    def finish(batch: pa.Table) -> pa.Table:
        # both operands non-negative, so Arrow's truncating divide == floor
        return batch.append_column(
            "mean_dist2", pc.divide(batch["inertia"], batch["n_vecs"])
        )

    return folded.map_batches(finish, batch_format="pyarrow")


def kmeans_label_agreement(sf_dir: str) -> ray.data.Dataset:
    """Cluster-vs-ground-truth cross-tab: how the learned k-means
    partition lines up with the embeddings table's ``label`` column (the
    clustering-accuracy readout, same shape as the langid confusion
    matrix).

    Output: (cluster, label, n_vecs).  Plan: the label column rides the
    final assignment scan (``with_label`` — zero joins), and the count's
    per-block combine bounds its exchange to O(k x labels) rows per
    block."""
    from .shuffle import grouped_agg

    km = embed_kmeans(sf_dir, with_label=True)
    return grouped_agg(km, ["cluster", "label"], {"n_vecs": ("label", "size")})


def _kmeans_oracle_sql() -> str:
    """Unrolled-iteration DuckDB oracle for embed_kmeans: quantize, K
    seed centroids, KMEANS_ITERS x (assign -> floor-div update), final
    assignment.  Floor division is spelled out (DuckDB ``//`` truncates
    toward zero; Python floors)."""
    fdiv = (
        "CASE WHEN sum(q.v) >= 0 THEN sum(q.v) // count(*) "
        "ELSE -(((-sum(q.v)) + count(*) - 1) // count(*)) END"
    )
    parts = [
        f"""q AS (
  SELECT vec_id, i - 1 AS dim,
         CAST(floor(CAST(e AS DOUBLE) * {KMEANS_SCALE}) AS BIGINT) AS v
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS i FROM embeddings)),
c0 AS (SELECT vec_id AS cluster, dim, v AS cv FROM q WHERE vec_id < {KMEANS_K})"""
    ]
    for it in range(1, KMEANS_ITERS + 1):
        prev = f"c{it - 1}"
        parts.append(
            f"""d{it} AS (
  SELECT q.vec_id, c.cluster,
         sum((q.v - c.cv) * (q.v - c.cv)) AS dist
  FROM q JOIN {prev} c ON c.dim = q.dim
  GROUP BY q.vec_id, c.cluster),
a{it} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, cluster)
             AS rk
    FROM d{it}) WHERE rk = 1),
c{it} AS (
  SELECT a.cluster, q.dim, {fdiv} AS cv
  FROM a{it} a JOIN q ON q.vec_id = a.vec_id
  GROUP BY a.cluster, q.dim)"""
        )
    last = f"c{KMEANS_ITERS}"
    ctes = ",\n".join(parts)
    return f"""
WITH {ctes},
df AS (
  SELECT q.vec_id, c.cluster,
         CAST(sum((q.v - c.cv) * (q.v - c.cv)) AS BIGINT) AS dist2
  FROM q JOIN {last} c ON c.dim = q.dim
  GROUP BY q.vec_id, c.cluster)
SELECT vec_id, cluster, dist2 FROM (
  SELECT vec_id, cluster, dist2,
         row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cluster) AS rk
  FROM df) WHERE rk = 1
"""


ORACLE_SQL["embed_kmeans"] = _kmeans_oracle_sql()

ORACLE_SQL["kmeans_inertia"] = f"""
WITH km AS ({ORACLE_SQL["embed_kmeans"]})
SELECT cluster, CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(sum(dist2) AS BIGINT) AS inertia,
       CAST(sum(dist2) // count(*) AS BIGINT) AS mean_dist2
FROM km GROUP BY cluster
"""

ORACLE_SQL["kmeans_label_agreement"] = f"""
WITH km AS ({ORACLE_SQL["embed_kmeans"]})
SELECT km.cluster, CAST(e.label AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM km JOIN embeddings e ON e.vec_id = km.vec_id
GROUP BY km.cluster, e.label
"""


KMEANS_SAMPLE_N = 30  # per-cluster quota for the balanced sample


def cluster_balanced_sample(sf_dir: str) -> ray.data.Dataset:
    """Cluster-balanced corpus sampling — the curation stage k-means exists
    for: a deterministic md5-ordered quota of KMEANS_SAMPLE_N vectors per
    k-means cluster, so over-represented embedding regions can't dominate
    a training mix (the cluster-balanced selection of DoReMi/D4-style
    pipelines, with the model swapped for the oracle-checkable integer
    k-means).  Output: (cluster, vec_id, dist2).

    Plan: the :func:`embed_kmeans` assignment scan feeds
    ``grouped_head_n`` (bounded-reducer per-group head-n): each block
    ships at most N rows per cluster into ONE bucketed exchange.  The
    md5 sort key is the repo's SQL-reproducible pseudo-random order
    (``functions/hashing``)."""
    from ..functions.duck import sql_over
    from .packing import grouped_head_n

    assigned = embed_kmeans(sf_dir)

    def add_key(t: pa.Table) -> pa.Table:
        return sql_over(
            "SELECT cluster, vec_id, dist2,"
            " md5(CAST(vec_id AS VARCHAR)) AS rnd FROM t",
            t=t,
        )

    keyed = assigned.map_batches(add_key, batch_format="pyarrow")
    head = grouped_head_n(
        keyed, "cluster", ["rnd", "vec_id"], [True, True], KMEANS_SAMPLE_N
    )
    return head.select_columns(["cluster", "vec_id", "dist2"])


ORACLE_SQL["cluster_balanced_sample"] = f"""
WITH km AS ({ORACLE_SQL["embed_kmeans"]})
SELECT cluster, vec_id, dist2 FROM (
  SELECT cluster, vec_id, dist2,
         row_number() OVER (
           PARTITION BY cluster
           ORDER BY md5(CAST(vec_id AS VARCHAR)), vec_id) AS rk
  FROM km) WHERE rk <= {KMEANS_SAMPLE_N}
"""
