"""Windowed / sessionized aggregates over the ``events`` table.

The reference is pure batch (SURVEY §2.8) — these are the streaming-shaped
extensions a web-scale pipeline needs.  Pattern per the Ray Data model:
treat events as a partitioned log; assignment-style windows (tumbling) are a
vectorized computed column + two-phase groupby; order-dependent windows
(sessions, as-of) run on the bucketed exchange keyed on ``user_id`` with one
vectorized polars kernel per bucket, with the ordering assumption stated
explicitly: all events of one ``user_id`` land in one bucket and the
per-bucket sort totally orders them.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.numerics import round_col
from .joins import collect
from .shuffle import grouped_agg

TUMBLE_US = 3_600_000_000  # 1-hour tumbling windows
SESSION_GAP_US = 1_800_000_000  # 30-min inactivity gap
HOP_US = 900_000_000  # hopping windows: 1-hour length, 15-min hop
N_HOPS = TUMBLE_US // HOP_US  # each event lands in exactly 4 windows


def _read_events(sf_dir: str, cols: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=cols)


def events_tumbling(sf_dir: str) -> ray.data.Dataset:
    """Per (user, 1-hour window): event count + value sum.

    Output: (user_id, window_start_us, n_events, sum_value) — sum rounded to
    2 dp at the end (single final rounding, matching the oracle)."""
    ds = _read_events(sf_dir, ["user_id", "ts", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // TUMBLE_US) * TUMBLE_US
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "window_start_us": pa.array(win, type=pa.int64()),
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "v": batch["value"],
            }
        )
        return (
            t.group_by(["user_id", "window_start_us"])
            .aggregate([("n", "sum"), ("v", "sum")])
            .rename_columns(["user_id", "window_start_us", "n", "v"])
        )

    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["user_id", "window_start_us"],
        {"n_events": ("n", "sum"), "sum_value": ("v", "sum")},
    )
    return agg.map_batches(
        lambda t: round_col(t, "sum_value", 2), batch_format="pyarrow"
    )


def events_hopping(sf_dir: str) -> ray.data.Dataset:
    """Per (user, 1-hour window hopping every 15 min): count + value sum.

    The sliding-window aggregate the tumbling form can't express: each
    event is assigned to its TUMBLE_US/HOP_US = 4 overlapping windows by a
    vectorized 4x replication inside ``map_batches`` (window_start =
    aligned hop minus k hops), then the same two-phase grouped sum as
    tumbling — replication factor is the constant window/hop ratio, never
    a shuffle of overlapping ranges.

    Output: (user_id, window_start_us, n_events, sum_value)."""
    ds = _read_events(sf_dir, ["user_id", "ts", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        n = len(batch)
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.repeat(np.arange(n), N_HOPS)
        k = np.tile(np.arange(N_HOPS, dtype=np.int64), n)
        win = ((ts[idx] // HOP_US) - k) * HOP_US
        t = pa.table(
            {
                "user_id": batch["user_id"].take(pa.array(idx)),
                "window_start_us": pa.array(win, type=pa.int64()),
                "n": pa.array(np.ones(len(idx), dtype=np.int64)),
                "v": batch["value"].take(pa.array(idx)),
            }
        )
        return (
            t.group_by(["user_id", "window_start_us"])
            .aggregate([("n", "sum"), ("v", "sum")])
            .rename_columns(["user_id", "window_start_us", "n", "v"])
        )

    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["user_id", "window_start_us"],
        {"n_events": ("n", "sum"), "sum_value": ("v", "sum")},
    )
    return agg.map_batches(
        lambda t: round_col(t, "sum_value", 2), batch_format="pyarrow"
    )


def events_asof(sf_dir: str) -> ray.data.Dataset:
    """Per purchase event: the most recent prior-or-equal click by the same
    user, via a per-user polars ``join_asof`` inside one exchange.

    Output: (event_id, user_id, ts_us, click_ts_us, gap_us) — click columns
    null when the user never clicked at-or-before the purchase.  Only the
    click *timestamp* crosses the join (the max prior ts is unique even when
    several click rows share it), keeping the result engine-independent
    under boundary ties."""
    # both sides come from the SAME table, so read once, keep click and
    # purchase rows, and run the per-user polars join_asof inside ONE
    # bucketed exchange keyed on user_id (3.4 s -> ~1.7 s at sf0.1 against
    # a two-read, two-sided as-of exchange).  A cross-table as-of would
    # tag both tables' rows into one such exchange the same way.
    from .shuffle import _compat, exchange

    ds = _read_events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.is_in(
                batch["event_type"],
                value_set=pa.array(["click", "purchase"]),
            )
        )
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "event_type": t["event_type"],
            }
        )

    filtered = ds.map_batches(keep, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        lf = pl.from_arrow(t)
        p = (
            lf.filter(pl.col("event_type") == "purchase")
            .select(["event_id", "user_id", "ts_us"])
            .sort("ts_us")
        )
        c = (
            lf.filter(pl.col("event_type") == "click")
            .select(["user_id", pl.col("ts_us").alias("click_ts_us")])
            .sort("click_ts_us")
        )
        out = p.join_asof(
            c,
            left_on="ts_us",
            right_on="click_ts_us",
            by="user_id",
            strategy="backward",
            check_sortedness=False,
        ).with_columns(
            (pl.col("ts_us") - pl.col("click_ts_us")).alias("gap_us")
        )
        return _compat(out.to_arrow())

    return exchange(filtered, ["user_id"], per_bucket)


def events_sessions(sf_dir: str) -> ray.data.Dataset:
    """Sessionization: per user, sessions split at > 30-min gaps.

    Output: (user_id, session_start_us, session_end_us, n_events).
    Physical plan (VERDICT r3 #2): ``shuffle.exchange`` keyed on user_id
    (NOT a per-user Python UDF over a sort on the raw high-cardinality
    key); each contiguous bucket range runs ONE vectorized polars
    sessionize over all its users: sort by (user_id, ts), gap-break +
    cumsum, one groupby-agg.  Deterministic because every (user_id, ts)
    pair of a user lands in the same bucket range and the per-range sort
    totally orders them."""
    from .shuffle import _compat, exchange

    ds = _read_events(sf_dir, ["user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": batch["user_id"], "ts_us": batch["ts"].cast(pa.int64())}
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(["user_id", "ts_us"])
        brk = (
            (pl.col("user_id") != pl.col("user_id").shift(1))
            | ((pl.col("ts_us") - pl.col("ts_us").shift(1)) > SESSION_GAP_US)
        ).fill_null(True)
        out = (
            df.with_columns(brk.cum_sum().alias("__sid"))
            .group_by(["user_id", "__sid"], maintain_order=False)
            .agg(
                pl.col("ts_us").min().alias("session_start_us"),
                pl.col("ts_us").max().alias("session_end_us"),
                pl.len().cast(pl.Int64).alias("n_events"),
            )
            .select(
                ["user_id", "session_start_us", "session_end_us", "n_events"]
            )
        )
        return _compat(out.to_arrow())

    mapped = ds.map_batches(to_us, batch_format="pyarrow")
    return exchange(mapped, ["user_id"], per_bucket)


def events_interarrival(sf_dir: str) -> ray.data.Dataset:
    """Per-user inter-event time distribution on a log2 scale — the
    engagement-cadence histogram (how long between a user's consecutive
    actions), keyed by the LATER event's type.

    Output: (event_type, gap_bucket, n_gaps) where ``gap_bucket`` =
    floor(log2(gap_seconds + 1)) — integer-exact on both sides (numpy
    ``frexp`` reads the float64 exponent field directly; the oracle
    counts binary digits via printf('%b'), so no float-rounding seam).

    Physical plan (the sessionization discipline, VERDICT r3 #2): ONE
    bucketed exchange keyed on user_id, then per bucket a single
    vectorized polars sort + shift computes every user's gaps (exact:
    all rows of a user land in one bucket; (ts, event_id) is a total
    order); per-bucket partial (type, bucket) counts make the second
    exchange O(types x 64) rows per block."""
    from .shuffle import _compat, exchange, grouped_agg

    ds = _read_events(sf_dir, ["user_id", "ts", "event_id", "event_type"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": batch["ts"].cast(pa.int64()),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(["user_id", "ts_us", "event_id"])
        same_user = pl.col("user_id") == pl.col("user_id").shift(1)
        gap = (
            pl.when(same_user)
            .then(pl.col("ts_us") - pl.col("ts_us").shift(1))
            .otherwise(None)
        )
        g = df.with_columns(gap.alias("gap_us")).drop_nulls("gap_us")
        gap_sec1 = (g["gap_us"].to_numpy() // 1_000_000) + 1
        # floor(log2(x)) exactly: frexp exposes the float64 exponent field
        # (values < 2^53, so the conversion is lossless)
        bucket = np.frexp(gap_sec1.astype(np.float64))[1] - 1
        out = pa.table(
            {
                "event_type": pa.array(g["event_type"].to_list(), type=pa.string()),
                "gap_bucket": pa.array(bucket.astype(np.int64)),
            }
        )
        return _compat(
            out.group_by(["event_type", "gap_bucket"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "gap_bucket", "n_gaps"])
        )

    mapped = ds.map_batches(to_us, batch_format="pyarrow")
    partials = exchange(mapped, ["user_id"], per_bucket)
    return grouped_agg(
        partials, ["event_type", "gap_bucket"], {"n_gaps": ("n_gaps", "sum")}
    )


DAY_US = 24 * 3_600 * 1_000_000


def events_daily_delta(sf_dir: str) -> ray.data.Dataset:
    """Per-type daily event volumes with day-over-day deltas — the
    monitoring readout that catches ingest regressions.

    Output: (event_type, day, n, n_prev, delta) — ``day`` is the epoch
    day index, ``n_prev`` the same type's count the previous day (0 if
    absent), ``delta = n - n_prev``.

    Plan: the single-exchange lag idiom (``trending_tokens``): each
    batch's partial (type, day) counts are emitted twice — once under
    their own day, once under ``day+1`` as n_prev carriers — so ONE
    grouped_agg recovers the lag; carrier-only rows (no events that day)
    drop after the exchange.  O(types x days) rows per block."""
    from .shuffle import grouped_agg

    ds = _read_events(sf_dir, ["ts", "event_type"])

    def partials(batch: pa.Table) -> pa.Table:
        day = pc.divide(batch["ts"].cast(pa.int64()), DAY_US)
        t = pa.table({"event_type": batch["event_type"], "day": day})
        cnt = (
            t.group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "day", "n"])
        )
        zeros = pa.array(np.zeros(len(cnt), dtype=np.int64))
        cur = pa.table(
            {
                "event_type": cnt["event_type"],
                "day": cnt["day"],
                "n": cnt["n"],
                "n_prev": zeros,
            }
        )
        prv = pa.table(
            {
                "event_type": cnt["event_type"],
                "day": pc.add(cnt["day"], 1),
                "n": zeros,
                "n_prev": cnt["n"],
            }
        )
        return pa.concat_tables([cur, prv])

    counts = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["event_type", "day"],
        {"n": ("n", "sum"), "n_prev": ("n_prev", "sum")},
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 0))
        return t.append_column("delta", pc.subtract(t["n"], t["n_prev"]))

    return counts.map_batches(finish, batch_format="pyarrow")


TOP_USERS_K = 10


def events_top_users(sf_dir: str, *, k: int = TOP_USERS_K) -> ray.data.Dataset:
    """Most-active users per event type (the power-user / abuse-triage
    readout): the k users with the most events of each type, exact.

    Output: (event_type, user_id, n_events) — ties by ascending user_id.

    Plan: per-batch (type, user) partial counts, one exchange completing
    them, then the bounded-reducer ``grouped_head_n`` per type (each
    block ships at most k rows per type into the final exchange)."""
    from .packing import grouped_head_n

    ds = _read_events(sf_dir, ["event_type", "user_id"])

    def partials(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["event_type", "user_id"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "user_id", "n_events"])
        )

    counts = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["event_type", "user_id"],
        {"n_events": ("n_events", "sum")},
    )
    return grouped_head_n(
        counts,
        "event_type",
        ["event_type", "n_events", "user_id"],
        [True, False, True],
        k,
    )


ARRIVAL_SEED = "arr1"
WATERMARK_DELAY_US = 7 * DAY_US


def events_watermark_lateness(sf_dir: str) -> ray.data.Dataset:
    """Streaming watermark accounting: how many events would arrive LATE
    (event time older than the watermark minus a 7-day allowed lag) under
    a deterministic out-of-order arrival stream — the operator class a
    streaming engine runs at the ingest edge, demonstrated here as a
    DISTRIBUTED PREFIX-MAX SCAN (the order-dependent analog of the
    sequence-packing cumsum carry plan).

    The events table is perfectly time-ordered by event_id, so arrival
    order is synthesized deterministically (seeded md5 of event_id — the
    same adapter discipline as the pages warc_ts contract); the watermark
    before each arrival is the max event time seen so far.

    Output: (event_type, n_events, n_late).

    Plan: arrival keys shard into 256 contiguous hex-prefix ranges of the
    global arrival order; pass 1 folds per-shard max event time
    (O(shards) rows to the driver — the packing carry fold); the driver's
    prefix maxima broadcast; pass 2 is ONE shard-keyed bucketed exchange
    where each shard runs a vectorized running-max seeded by its carry
    and pre-counts lateness per type.  No step ever orders more than one
    shard; the tagged scan is materialized once and feeds both passes."""
    from ..functions.duck import sql_over
    from .shuffle import _compat, exchange, grouped_agg

    ds = _read_events(sf_dir, ["event_id", "ts", "event_type"])

    def tag(batch: pa.Table) -> pa.Table:
        return sql_over(
            "SELECT event_id, event_type, epoch_us(ts) AS ts_us, "
            f"md5(CAST(event_id AS VARCHAR) || '|{ARRIVAL_SEED}') AS ak, "
            f"substr(md5(CAST(event_id AS VARCHAR) || '|{ARRIVAL_SEED}'), 1, 2)"
            " AS shard FROM t",
            t=batch,
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    def shard_max(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["shard", "ts_us"])
            .group_by(["shard"])
            .aggregate([("ts_us", "max")])
            .rename_columns(["shard", "ts_max"])
        )

    folded = collect(
        grouped_agg(
            tagged.map_batches(shard_max, batch_format="pyarrow"),
            ["shard"],
            {"ts_max": ("ts_max", "max")},
        ),
        "watermark carry fold",  # <= 256 rows
    )
    # each shard's carry: the max event time of every shard before it
    carry = (
        pl.from_arrow(folded)
        .sort("shard")
        .select("shard", pl.col("ts_max").cum_max().shift(1).alias("carry"))
    )
    carry_ref = ray.put(carry)
    _SENTINEL = -(2**62)  # "no preceding arrival": never late, no overflow

    def per_bucket(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .join(ray.get(carry_ref), on="shard", how="left")
            .sort(["ak", "event_id"])
        )
        wm = pl.max_horizontal(
            pl.col("ts_us").cum_max().shift(1).over("shard"), "carry"
        ).fill_null(_SENTINEL)
        late = df.select("event_type", late=pl.col("ts_us") < wm - WATERMARK_DELAY_US)
        out = late.group_by("event_type").agg(
            pl.len().cast(pl.Int64).alias("n_events"),
            pl.col("late").sum().cast(pl.Int64).alias("n_late"),
        )
        return _compat(out.to_arrow())

    partials = exchange(tagged, ["shard"], per_bucket)
    return grouped_agg(
        partials,
        ["event_type"],
        {"n_events": ("n_events", "sum"), "n_late": ("n_late", "sum")},
    )


WEEK_US = 7 * 24 * 3_600 * 1_000_000  # cohort granularity


def events_cohorts(sf_dir: str) -> pa.Table:
    """Cohort retention triangle: users bucketed by first-seen week,
    counted in every week they were active, with integer retention vs the
    cohort's size.  Output: (cohort_week, week, n_users,
    retention_permille); weeks are epoch-microsecond floors / WEEK_US.

    Physical plan (the sessionization discipline): per-batch distinct
    (user_id, week) partials, ONE user-keyed bucketed exchange, then per
    bucket a single vectorized polars kernel derives each user's cohort
    (min week — exact: all rows of a user land in one bucket) and emits
    per-(cohort, week) partial distinct-user counts; a second
    O(weeks^2)-bounded exchange sums them.  Retention division happens on
    the driver over the bounded fold (a cohort's size is its own
    (w, w) diagonal cell — every user is active in their first week).
    Returns an eager Table (registry contract for driver-finished
    bounded aggregates)."""
    from ..functions.duck import sql_over
    from .shuffle import _compat, exchange

    ds = _read_events(sf_dir, ["user_id", "ts"])

    def to_weeks(batch: pa.Table) -> pa.Table:
        week = pc.divide(
            batch["ts"].cast(pa.int64()), pa.scalar(WEEK_US, type=pa.int64())
        )
        t = pa.table({"user_id": batch["user_id"], "week": week})
        return t.group_by(["user_id", "week"]).aggregate([]).select(
            ["user_id", "week"]
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).unique()
        coh = df.group_by("user_id").agg(
            pl.col("week").min().alias("cohort_week")
        )
        out = (
            df.join(coh, on="user_id")
            .group_by(["cohort_week", "week"])
            .agg(pl.col("user_id").n_unique().cast(pl.Int64).alias("n_users"))
        )
        return _compat(out.to_arrow())

    mapped = ds.map_batches(to_weeks, batch_format="pyarrow")
    partials = exchange(mapped, ["user_id"], per_bucket)
    fold = grouped_agg(
        partials, ["cohort_week", "week"], {"n_users": ("n_users", "sum")}
    )
    g = collect(fold, "retention fold")
    return sql_over(
        """SELECT g.cohort_week, g.week, g.n_users,
             CAST((g.n_users * 1000) // s.n_users AS BIGINT)
               AS retention_permille
           FROM g JOIN g s ON s.cohort_week = g.cohort_week
                          AND s.week = s.cohort_week""",
        g=g,
    )


FUNNEL_STEPS = ("signup", "click", "purchase")


def events_funnel(sf_dir: str) -> pa.Table:
    """Ordered conversion funnel: users who signed up, then clicked
    strictly after their first signup, then purchased strictly after that
    first qualifying click.  Output: (step, event_type, n_users,
    conversion_permille) with conversion integer-relative to step 1.

    Physical plan (the sessionization discipline): ONE user-keyed
    bucketed exchange; each bucket runs a vectorized polars min-ts
    cascade over its users (exact — a user's events never span buckets)
    and emits 3 partial step counts; the O(steps) fold and the
    conversion division finish on the driver.  Returns an eager Table
    (registry contract for bounded driver-finished aggregates)."""
    from .shuffle import _compat, exchange

    ds = _read_events(sf_dir, ["user_id", "ts", "event_type"])
    s1, s2, s3 = FUNNEL_STEPS

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": batch["ts"].cast(pa.int64()),
                "event_type": batch["event_type"],
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        t1 = (
            df.filter(pl.col("event_type") == s1)
            .group_by("user_id")
            .agg(pl.col("ts_us").min().alias("t1"))
        )
        t2 = (
            df.filter(pl.col("event_type") == s2)
            .join(t1, on="user_id")
            .filter(pl.col("ts_us") > pl.col("t1"))
            .group_by("user_id")
            .agg(pl.col("ts_us").min().alias("t2"))
        )
        t3 = (
            df.filter(pl.col("event_type") == s3)
            .join(t2, on="user_id")
            .filter(pl.col("ts_us") > pl.col("t2"))
            .group_by("user_id")
            .agg(pl.col("ts_us").min().alias("t3"))
        )
        return pa.table(
            {
                "step": pa.array([1, 2, 3], type=pa.int64()),
                "n_users": pa.array(
                    [len(t1), len(t2), len(t3)], type=pa.int64()
                ),
            }
        )

    mapped = ds.map_batches(to_us, batch_format="pyarrow")
    partials = exchange(mapped, ["user_id"], per_bucket)
    fold = collect(
        grouped_agg(partials, ["step"], {"n_users": ("n_users", "sum")}),
        "funnel fold",
    ).sort_by("step")
    n = fold["n_users"].to_pylist()
    base = n[0] if n and n[0] else 1
    return pa.table(
        {
            "step": fold["step"],
            "event_type": pa.array(list(FUNNEL_STEPS), type=pa.string()),
            "n_users": fold["n_users"],
            "conversion_permille": pa.array(
                [v * 1000 // base for v in n], type=pa.int64()
            ),
        }
    )


def events_type_stats(sf_dir: str) -> ray.data.Dataset:
    """Per event_type: counts, distinct users, value sum.

    Output: (event_type, n_events, n_users, sum_value) — count-distinct done
    shuffle-free via the two-level (type, user) partial aggregation."""
    ds = _read_events(sf_dir, ["event_type", "user_id", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "user_id": batch["user_id"],
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "v": batch["value"],
            }
        )
        return (
            t.group_by(["event_type", "user_id"])
            .aggregate([("n", "sum"), ("v", "sum")])
            .rename_columns(["event_type", "user_id", "n", "v"])
        )

    per_user = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["event_type", "user_id"],
        {"n": ("n", "sum"), "v": ("v", "sum")},
    )
    agg = grouped_agg(
        per_user,
        ["event_type"],
        {
            "n_events": ("n", "sum"),
            "n_users": ("user_id", "size"),
            "sum_value": ("v", "sum"),
        },
    )
    return agg.map_batches(
        lambda t: round_col(t, "sum_value", 2), batch_format="pyarrow"
    )


def events_props_stats(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured payload parsing: the ``props`` column holds JSON
    ('{"k": <int>}'); per event_type, count events and sum the extracted k.

    Output: (event_type, n_events, sum_k) — two-phase aggregation with the
    JSON parse vectorized per batch."""
    import json

    ds = _read_events(sf_dir, ["event_type", "props"])

    def partials(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (json.loads(p)["k"] for p in batch["props"].to_pylist()),
            dtype=np.int64,
        )
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "k": pa.array(ks),
            }
        )
        return (
            t.group_by("event_type")
            .aggregate([("n", "sum"), ("k", "sum")])
            .rename_columns(["event_type", "n", "k"])
        )

    return grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["event_type"],
        {"n_events": ("n", "sum"), "sum_k": ("k", "sum")},
    )


ORACLE_SQL: dict[str, str] = {
    "events_top_users": f"""
WITH c AS (
  SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events GROUP BY event_type, user_id
),
r AS (
  SELECT event_type, user_id, n_events,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n_events DESC, user_id) AS rk
  FROM c
)
SELECT event_type, user_id, n_events FROM r WHERE rk <= {TOP_USERS_K}
""",
    "events_watermark_lateness": f"""
WITH a AS (
  SELECT event_type, ts, event_id,
         md5(CAST(event_id AS VARCHAR) || '|{ARRIVAL_SEED}') AS ak
  FROM events
),
w AS (
  SELECT event_type, ts,
         max(ts) OVER (ORDER BY ak, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM a
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (ts < wm - INTERVAL 7 DAY) AS BIGINT) AS n_late
FROM w GROUP BY event_type
""",
    "events_daily_delta": f"""
WITH cnt AS (
  SELECT event_type, epoch_us(ts) // {DAY_US} AS day,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT c.event_type, CAST(c.day AS BIGINT) AS day, c.n,
       CAST(coalesce(p.n, 0) AS BIGINT) AS n_prev,
       CAST(c.n - coalesce(p.n, 0) AS BIGINT) AS delta
FROM cnt c LEFT JOIN cnt p
  ON p.event_type = c.event_type AND p.day = c.day - 1
""",
    "events_interarrival": """
WITH g AS (
  SELECT event_type,
         epoch_us(ts) - lag(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events
)
SELECT event_type,
       CAST(length(printf('%b', (gap_us // 1000000) + 1)) - 1 AS BIGINT)
         AS gap_bucket,
       CAST(count(*) AS BIGINT) AS n_gaps
FROM g WHERE gap_us IS NOT NULL
GROUP BY event_type, gap_bucket
""",
    "events_props_stats": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT)
         AS sum_k
FROM events GROUP BY event_type
""",
    "events_tumbling": f"""
SELECT user_id,
       (epoch_us(ts) // {TUMBLE_US}) * {TUMBLE_US} AS window_start_us,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY user_id, (epoch_us(ts) // {TUMBLE_US}) * {TUMBLE_US}
""",
    "events_hopping": f"""
SELECT user_id,
       ((epoch_us(ts) // {HOP_US}) - k.k) * {HOP_US} AS window_start_us,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 2) AS sum_value
FROM events, range({N_HOPS}) k(k)
GROUP BY user_id, ((epoch_us(ts) // {HOP_US}) - k.k) * {HOP_US}
""",
    "events_asof": """
SELECT p.event_id, p.user_id, epoch_us(p.ts) AS ts_us,
       epoch_us(c.ts) AS click_ts_us,
       epoch_us(p.ts) - epoch_us(c.ts) AS gap_us
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
""",
    "events_funnel": f"""
WITH s AS (SELECT user_id, min(epoch_us(ts)) AS t1 FROM events
           WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id),
c AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t2
      FROM events e JOIN s ON s.user_id = e.user_id
      WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND epoch_us(e.ts) > s.t1
      GROUP BY e.user_id),
p AS (SELECT e.user_id FROM events e JOIN c ON c.user_id = e.user_id
      WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND epoch_us(e.ts) > c.t2
      GROUP BY e.user_id),
f AS (
  SELECT 1 AS step, '{FUNNEL_STEPS[0]}' AS event_type,
         CAST(count(*) AS BIGINT) AS n_users FROM s
  UNION ALL
  SELECT 2, '{FUNNEL_STEPS[1]}', CAST(count(*) AS BIGINT) FROM c
  UNION ALL
  SELECT 3, '{FUNNEL_STEPS[2]}', CAST(count(*) AS BIGINT) FROM p),
b AS (SELECT n_users AS base FROM f WHERE step = 1)
SELECT f.step, f.event_type, f.n_users,
       CAST((f.n_users * 1000) // greatest(b.base, 1) AS BIGINT)
         AS conversion_permille
FROM f CROSS JOIN b
""",
    "events_cohorts": f"""
WITH e AS (SELECT user_id, epoch_us(ts) // {WEEK_US} AS week FROM events),
c AS (SELECT user_id, min(week) AS cohort_week FROM e GROUP BY user_id),
a AS (SELECT DISTINCT e.user_id, c.cohort_week, e.week
      FROM e JOIN c USING (user_id)),
g AS (SELECT cohort_week, week, CAST(count(*) AS BIGINT) AS n_users
      FROM a GROUP BY cohort_week, week),
s AS (SELECT cohort_week, n_users AS cohort_size FROM g
      WHERE week = cohort_week)
SELECT g.cohort_week, g.week, g.n_users,
       CAST((g.n_users * 1000) // s.cohort_size AS BIGINT)
         AS retention_permille
FROM g JOIN s USING (cohort_week)
""",
    "events_sessions": f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events),
m AS (
  SELECT user_id, t,
         CASE WHEN t - lag(t) OVER (PARTITION BY user_id ORDER BY t)
                   > {SESSION_GAP_US}
              OR lag(t) OVER (PARTITION BY user_id ORDER BY t) IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM e
),
s AS (
  SELECT user_id, t,
         sum(brk) OVER (PARTITION BY user_id ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
)
SELECT user_id, min(t) AS session_start_us, max(t) AS session_end_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, sid
""",
    "events_type_stats": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY event_type
""",
}
