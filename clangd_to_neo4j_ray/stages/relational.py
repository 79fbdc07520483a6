"""Relational operator coverage over the TPC-H-ish tables.

Demonstrates the general-purpose operator surface (grouped aggregates,
multi-way joins, semi/anti joins, top-k, window ranks) that the KG pipeline
stages build on, each with an exact DuckDB oracle.  Reference analogs:
grouped aggregates = A1/A2; anti-join = A8 orphan cleanup; per-key ranking =
O1/O2 ordering semantics.

Join strategy notes (SURVEY §7.4): dimension sides (nation, customer, part,
filtered orders) are broadcast while they drain under
``joins.BROADCAST_BYTES``, else they go through ``bucketed_join``; the fact
table (lineitem) always streams.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.numerics import round_col, round_half_away
from .joins import broadcast_semi_join, bucketed_join, collect, drain
from .shuffle import _compat, exchange, grouped_agg

Q1_CUTOFF = "1998-09-02"
Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-01-01"
TOP_PARTS_K = 10


def _read(sf_dir: str, table: str, cols: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=cols)


def q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-style pricing summary.

    Output: (l_returnflag, l_linestatus, sum_qty, sum_base_price,
    sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count_order)
    — sums rounded to 2 dp, avgs to 4 dp, all derived from exact partial
    sums (two-phase aggregation; division + rounding only at the end)."""
    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    def prices(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(np.datetime64(Q1_CUTOFF, "us")))
        )
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        charge = pc.multiply(disc_price, pc.add(pa.scalar(1.0), batch["l_tax"]))
        return batch.append_column("disc_price", disc_price).append_column(
            "charge", charge
        )

    agg = grouped_agg(
        ds.map_batches(prices, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "s_qty": ("l_quantity", "sum"),
            "s_price": ("l_extendedprice", "sum"),
            "s_disc_price": ("disc_price", "sum"),
            "s_charge": ("charge", "sum"),
            "s_disc": ("l_discount", "sum"),
            "n": ("l_quantity", "size"),
        },
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": pa.array(round_half_away(t["s_qty"].to_numpy(zero_copy_only=False), 2)),
                "sum_base_price": pa.array(round_half_away(t["s_price"].to_numpy(zero_copy_only=False), 2)),
                "sum_disc_price": pa.array(round_half_away(t["s_disc_price"].to_numpy(zero_copy_only=False), 2)),
                "sum_charge": pa.array(round_half_away(t["s_charge"].to_numpy(zero_copy_only=False), 2)),
                "avg_qty": pa.array(
                    round_half_away(t["s_qty"].to_numpy(zero_copy_only=False) / n, 4)
                ),
                "avg_price": pa.array(
                    round_half_away(t["s_price"].to_numpy(zero_copy_only=False) / n, 4)
                ),
                "avg_disc": pa.array(
                    round_half_away(t["s_disc"].to_numpy(zero_copy_only=False) / n, 4)
                ),
                "count_order": t["n"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q3_top_orders(sf_dir: str) -> ray.data.Dataset:
    """Q3-style: top-10 BUILDING-segment orders by discounted revenue.

    Output: (o_orderkey, revenue, o_orderdate_us) — revenue rounded 2 dp,
    deterministic order (revenue desc, o_orderkey asc), limit 10.
    Fully distributed plan (no driver-side dimension materialization,
    VERDICT r1 #2): per-order revenue = per-batch partial + one bucketed
    sum over the whole fact; qualifying (segment + date) orders via
    bucketed semi-join on customers; dates attach in the same bucketed
    inner join — the driver only ever sees the final 10 rows."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], Q3_SEGMENT)).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(
            pc.less(t["o_orderdate"], pa.scalar(np.datetime64(Q3_DATE, "us")))
        ),
        batch_format="pyarrow",
    )
    # planner choice (r3): the filtered-segment customer keys broadcast as
    # an is_in set while the customer table's size hint is under the
    # broadcast limit, dropping one sequential exchange; past the limit
    # the same call degrades to the bucketed semi-join
    from .joins import auto_semi_join

    orders_f = auto_semi_join(
        orders, cust, "o_custkey", "c_custkey", how="semi"
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partials(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = pa.table({"o_orderkey": batch["l_orderkey"], "rev": rev})
        return (
            t.group_by("o_orderkey").aggregate([("rev", "sum")]).rename_columns(
                ["o_orderkey", "rev"]
            )
        )

    # the per-order revenue combine fuses into the join's bucket exchange
    # (both key on o_orderkey): one all-to-all instead of two
    joined = bucketed_join(
        li.map_batches(partials, batch_format="pyarrow"),
        orders_f,
        on="o_orderkey",
        how="inner",
        left_combine=lambda df: df.group_by("o_orderkey").agg(
            pl.col("rev").sum()
        ),
    )
    top = (
        joined.map_batches(lambda t: round_col(t, "rev", 2), batch_format="pyarrow")
        .sort(["rev", "o_orderkey"], descending=[True, False])
        .limit(TOP_PARTS_K)
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "revenue": t["rev"],
                "o_orderdate_us": t["o_orderdate"].cast(pa.int64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


def top_parts_by_revenue(sf_dir: str) -> pa.Table:
    """Top-10 parts by lineitem revenue, with part attributes.

    Output: (p_partkey, p_name, p_brand, revenue) — broadcast-join the part
    dimension onto the aggregated fact stream."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return pa.table({"p_partkey": batch["l_partkey"], "rev": rev})

    top = collect(
        grouped_agg(
            li.map_batches(revenue, batch_format="pyarrow"),
            ["p_partkey"],
            {"rev": ("rev", "sum")},
        )
        .map_batches(lambda t: round_col(t, "rev", 2), batch_format="pyarrow")
        .sort(["rev", "p_partkey"], descending=[True, False])
        .limit(TOP_PARTS_K),
        "top parts",  # K rows — the one legitimate driver materialization
    )
    # attach attributes for just the K winners: distributed is_in filter of
    # the part dimension (never a full-dimension driver read), then a K-row
    # join on the driver
    attrs = collect(
        broadcast_semi_join(
            _read(sf_dir, "part", ["p_partkey", "p_name", "p_brand"]),
            "p_partkey",
            top["p_partkey"].to_pylist(),
        ),
        "top part attributes",
    )
    out = pl.from_arrow(top).join(
        pl.from_arrow(attrs), on="p_partkey", maintain_order="left"
    )
    return _compat(
        out.select("p_partkey", "p_name", "p_brand", revenue="rev").to_arrow()
    )


def customers_without_orders(sf_dir: str) -> ray.data.Dataset:
    """Anti-join coverage: per segment, how many customers placed no orders.

    Output: (c_mktsegment, n_customers, n_without_orders) — one row per
    segment (schema-stable even when no customer lacks orders).  Fully
    distributed (VERDICT r1 #3): bucketed distinct of the fact key column
    (per-batch pre-dedup, then one low-cardinality exchange), then a
    bucketed LEFT join with a match marker — no fact column ever lands on
    the driver (A8 orphan-cleanup semantics, ``neo4j_manager.py:124-128``)."""
    # per-batch pre-dedup shrinks the exchange; the final distinct fuses
    # into the join bucket (right_combine) — one all-to-all total
    okey_partials = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda t: pa.table(
            {"o_custkey": pc.unique(t["o_custkey"].combine_chunks())}
        ),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    # planner choice (r3): membership marker broadcasts the (pre-deduped)
    # fact keys while the orders size hint is under the broadcast limit;
    # past it, the same call runs the bucketed LEFT join with the marker
    # combine — no fact column ever lands on the driver either way
    from .joins import auto_membership_marker

    marked = auto_membership_marker(
        cust, okey_partials, "c_custkey", "o_custkey"
    ).map_batches(
        lambda t: t.append_column(
            "w", pc.cast(pc.invert(t["in_right"]), pa.int64())
        ),
        batch_format="pyarrow",
    )
    return grouped_agg(
        marked,
        ["c_mktsegment"],
        {
            "n_customers": ("c_custkey", "size"),
            "n_without_orders": ("w", "sum"),
        },
    )


def nation_order_stats(sf_dir: str) -> ray.data.Dataset:
    """Orders per customer nation.

    Output: (n_name, n_orders, sum_totalprice).  Plan (VERDICT r1 #10): the
    fact side pre-aggregates to one row per customer.  While the customer
    map (c_custkey -> c_nationkey) drains under ``joins.BROADCAST_BYTES``
    it is broadcast, each batch attaches c_nationkey, and the whole query
    is ONE 25-key ``grouped_agg`` (whose per-block combine re-partials by
    nation).  Past the cap (a 100 TB customer table) the customer
    dimension joins via the distributed bucketed hash join.  The 25-row nation lookup is always
    broadcast."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "v": batch["o_totalprice"],
            }
        )
        return (
            t.group_by("o_custkey")
            .aggregate([("n", "sum"), ("v", "sum")])
            .rename_columns(["o_custkey", "n", "v"])
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cmap = drain(
        cust, schema=pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())])
    )
    if cmap is not None:
        import ray as _ray

        # ship the custkey->nationkey map as TWO sorted Arrow arrays, not a
        # Python dict: pa.Array refs are plasma zero-copy, so workers map
        # them once instead of re-unpickling millions of dict entries per
        # batch, and the lookup is a vectorized searchsorted instead of a
        # per-row .get loop (ADVICE r3)
        cmap = cmap.sort_by("c_custkey")
        keys_ref = _ray.put(cmap["c_custkey"].combine_chunks())
        vals_ref = _ray.put(cmap["c_nationkey"].combine_chunks())

        def attach(batch: pa.Table) -> pa.Table:
            keys = _ray.get(keys_ref).to_numpy()
            vals = _ray.get(vals_ref).to_numpy()
            k = batch["o_custkey"].to_numpy(zero_copy_only=False)
            if len(keys) == 0:
                found = np.zeros(len(k), dtype=bool)
                nk = np.empty(0, dtype=np.int64)
            else:
                idx = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
                # misses DROP: inner-join semantics, exactly like the
                # bucketed path (code-review r3)
                found = keys[idx] == k
                nk = vals[idx][found]
            return pa.table(
                {
                    "c_nationkey": pa.array(nk, type=pa.int64()),
                    "n": pa.array(
                        batch["n"].to_numpy(zero_copy_only=False)[found]
                    ),
                    "v": pa.array(
                        batch["v"].to_numpy(zero_copy_only=False)[found]
                    ),
                }
            )

        joined = orders.map_batches(
            partials, batch_format="pyarrow"
        ).map_batches(attach, batch_format="pyarrow")
    else:
        # per-customer combine fuses into the join exchange (same key)
        joined = bucketed_join(
            orders.map_batches(partials, batch_format="pyarrow"),
            cust,
            on="o_custkey",
            right_on="c_custkey",
            how="inner",
            left_combine=lambda df: df.group_by("o_custkey").agg(
                pl.col("n").sum(), pl.col("v").sum()
            ),
        )
    per_nation = grouped_agg(
        joined,
        ["c_nationkey"],
        {"n_orders": ("n", "sum"), "v": ("v", "sum")},
    )

    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    name_of = dict(zip(nation["n_nationkey"], nation["n_name"]))

    def finish(t: pa.Table) -> pa.Table:
        keys = t["c_nationkey"].to_pylist()
        return pa.table(
            {
                "n_name": pa.array([name_of[k] for k in keys], type=pa.string()),
                "n_orders": t["n_orders"],
                "sum_totalprice": pa.array(
                    round_half_away(t["v"].to_numpy(zero_copy_only=False), 2)
                ),
            }
        )

    return per_nation.map_batches(finish, batch_format="pyarrow")


def customer_order_totals(sf_dir: str) -> ray.data.Dataset:
    """Large-large hash-partitioned join (``joins.bucketed_join``):
    per-customer order totals with customer attributes.

    Output: (c_custkey, c_name, n_orders, sum_totalprice) for customers with
    >= 1 order.  Plan: bucketed pre-aggregation of the fact side (orders ->
    one row per customer) THEN the shuffle join — join inputs are minimal,
    the standard aggregate-before-join pushdown."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "v": batch["o_totalprice"],
            }
        )
        return (
            t.group_by("o_custkey")
            .aggregate([("n", "sum"), ("v", "sum")])
            .rename_columns(["o_custkey", "n", "v"])
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    # bucketed_join replaces Ray's JoinOperator here: the fixed-partition
    # hash-shuffle join was 4x slower than every sibling query at sf0.1
    # (VERDICT r1 #7); the per-customer combine fuses into the join's own
    # exchange, so the whole query is ONE all-to-all.
    joined = bucketed_join(
        orders.map_batches(partials, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        right_on="c_custkey",
        how="inner",
        left_combine=lambda df: df.group_by("o_custkey").agg(
            pl.col("n").sum().alias("n_orders"), pl.col("v").sum()
        ),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": t["o_custkey"],
                "c_name": t["c_name"],
                "n_orders": t["n_orders"],
                "sum_totalprice": pa.array(
                    round_half_away(t["v"].to_numpy(zero_copy_only=False), 2)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def orders_rank_window(sf_dir: str) -> ray.data.Dataset:
    """Window-function analog: per-customer order sequence number.

    Output: (o_custkey, o_orderkey, rn) with rn = rank by
    (o_orderdate, o_orderkey) within customer — deterministic tie-break.
    O2-style within-group ordering inside the exchange's reducer."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])

    def rank(t: pa.Table) -> pa.Table:
        # vectorized rank within every customer in the bucket range
        df = pl.from_arrow(t).sort(["o_custkey", "o_orderdate", "o_orderkey"])
        rn = pl.int_range(1, pl.len() + 1, dtype=pl.Int64).over("o_custkey")
        return _compat(df.select("o_custkey", "o_orderkey", rn=rn).to_arrow())

    return exchange(orders, ["o_custkey"], rank)


QUANTILE_PS = (0.5, 0.9, 0.99)


def lineitem_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact distributed order statistics (p50/p90/p99 of l_quantity per
    return flag) via two-phase value-count histograms — the aggregate class
    a plain sum/count reduce can't express.

    Scale pattern: l_quantity has bounded cardinality (~50 distinct), so
    per-batch (flag, value) counts + one exchange on the flag replace any
    global sort; reducer state is O(distinct values), independent of row
    count.  The final interpolation (type-7 / ``quantile_cont`` semantics:
    h = p*(n-1), linear between ranks floor(h), ceil(h)) runs on the
    per-flag histogram — a few dozen rows.

    Output: (l_returnflag, p50, p90, p99) rounded to 2 dp."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "q": batch["l_quantity"],
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return (
            t.group_by(["l_returnflag", "q"])
            .aggregate([("n", "sum")])
            .rename_columns(["l_returnflag", "q", "n"])
        )

    def quants(t: pa.Table) -> pa.Table:
        hist = (
            pl.from_arrow(t)
            .group_by("l_returnflag", "q")
            .agg(pl.col("n").sum())
            .sort("l_returnflag", "q")
            .with_columns(cum=pl.col("n").cum_sum().over("l_returnflag"))
        )

        def at_rank(r: pl.Expr) -> pl.Expr:
            # value at 0-indexed rank r = first histogram bin with cum > r
            return pl.col("q").filter(pl.col("cum") > r).first()

        picks = []
        for p, name in zip(QUANTILE_PS, ("p50", "p90", "p99")):
            h = p * (pl.col("cum").last() - 1)  # quantile_cont: type 7
            lo, hi = h.floor(), h.ceil()
            x_lo, x_hi = at_rank(lo), at_rank(hi)
            picks.append((x_lo + (h - lo) * (x_hi - x_lo)).alias(name))
        out = _compat(hist.group_by("l_returnflag").agg(picks).to_arrow())
        # DuckDB round() is half AWAY FROM ZERO; builtin round() is
        # half-to-even and silently diverges on .xx5 boundaries (ADVICE
        # r2) — every oracle-matched rounding goes through round_half_away
        for c in out.column_names[1:]:
            out = round_col(out, c, 2)
        return out

    # (flag, value) partials are few per block: one exchange on the flag
    # folds them into each flag's histogram and interpolates it
    return exchange(
        ds.map_batches(partials, batch_format="pyarrow"), ["l_returnflag"], quants
    )


ORACLE_SQL: dict[str, str] = {
    "lineitem_quantiles": """
SELECT l_returnflag,
       round(quantile_cont(l_quantity, 0.5), 2) AS p50,
       round(quantile_cont(l_quantity, 0.9), 2) AS p90,
       round(quantile_cont(l_quantity, 0.99), 2) AS p99
FROM lineitem GROUP BY l_returnflag
""",
    "q1_pricing_summary": f"""
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2)
         AS sum_charge,
       round(sum(l_quantity) / count(*), 4) AS avg_qty,
       round(sum(l_extendedprice) / count(*), 4) AS avg_price,
       round(sum(l_discount) / count(*), 4) AS avg_disc,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
""",
    "q3_top_orders": f"""
SELECT o.o_orderkey,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       epoch_us(o.o_orderdate) AS o_orderdate_us
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_DATE} 00:00:00'
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY revenue DESC, o.o_orderkey
LIMIT {TOP_PARTS_K}
""",
    "top_parts_by_revenue": f"""
SELECT p.p_partkey, p.p_name, p.p_brand,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM part p JOIN lineitem l ON l.l_partkey = p.p_partkey
GROUP BY p.p_partkey, p.p_name, p.p_brand
ORDER BY revenue DESC, p.p_partkey
LIMIT {TOP_PARTS_K}
""",
    "customers_without_orders": """
SELECT c.c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers,
       CAST(count(*) FILTER (NOT EXISTS
            (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey))
         AS BIGINT) AS n_without_orders
FROM customer c
GROUP BY c.c_mktsegment
""",
    "nation_order_stats": """
SELECT n.n_name, CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS sum_totalprice
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
""",
    "customer_order_totals": """
SELECT c.c_custkey, c.c_name, CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS sum_totalprice
FROM customer c JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey, c.c_name
""",
    "orders_rank_window": """
SELECT o_custkey, o_orderkey,
       CAST(row_number() OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey) AS BIGINT)
         AS rn
FROM orders
""",
}
