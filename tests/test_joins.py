"""bucketed_join: the distributed hash join on the bucketed-shuffle
machinery (inner/left/semi/anti + per-bucket combine fusion)."""

from __future__ import annotations

import pandas as pd
import polars as pl
import pytest
import ray.data

from clangd_to_neo4j_ray.stages.joins import bucketed_join

L = pd.DataFrame({"k": [1, 2, 3, 4, 5, 5], "a": ["p", "q", "r", "s", "t", "u"]})
R = pd.DataFrame({"ck": [2, 3, 3, 7], "b": [20, 30, 31, 70]})


def _cmp(got: pd.DataFrame, exp: pd.DataFrame):
    g = got.sort_values(list(got.columns)).reset_index(drop=True)
    x = exp[list(got.columns)].sort_values(list(got.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, x, check_dtype=False)


@pytest.mark.parametrize(
    "how,builder",
    [
        ("inner", lambda: L.merge(R, left_on="k", right_on="ck").drop(columns="ck")),
        (
            "left",
            lambda: L.merge(R, left_on="k", right_on="ck", how="left").drop(
                columns="ck"
            ),
        ),
        ("semi", lambda: L[L.k.isin(R.ck)]),
        ("anti", lambda: L[~L.k.isin(R.ck)]),
    ],
)
def test_join_types_match_pandas(how, builder):
    got = bucketed_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(R),
        "k",
        right_on="ck",
        how=how,
        num_buckets=4,
    ).to_pandas()
    _cmp(got, builder())


def test_shared_key_name():
    r2 = pd.DataFrame({"k": [1, 5], "b": [10, 50]})
    got = bucketed_join(
        ray.data.from_pandas(L), ray.data.from_pandas(r2), "k", how="inner"
    ).to_pandas()
    _cmp(got, L.merge(r2, on="k"))


def test_combine_fuses_aggregation_into_join_exchange():
    """left_combine runs the final per-key aggregation inside the join's
    bucket, equivalent to grouped-sum-then-join."""
    partials = pd.DataFrame({"k": [1, 1, 2, 2, 3], "v": [1, 2, 3, 4, 5]})
    dim = pd.DataFrame({"k": [1, 2], "name": ["one", "two"]})
    got = bucketed_join(
        ray.data.from_pandas(partials),
        ray.data.from_pandas(dim),
        "k",
        how="inner",
        num_buckets=4,
        left_combine=lambda df: df.group_by("k").agg(pl.col("v").sum()),
    ).to_pandas()
    exp = pd.DataFrame({"k": [1, 2], "v": [3, 7], "name": ["one", "two"]})
    _cmp(got, exp)


def test_right_combine_dedup_marker():
    facts = pd.DataFrame({"fk": [2, 2, 3, 3, 3]})
    got = bucketed_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(facts),
        "k",
        right_on="fk",
        how="left",
        num_buckets=4,
        right_combine=lambda df: df.unique().with_columns(
            pl.lit(1).cast(pl.Int8).alias("__has")
        ),
    ).to_pandas()
    assert len(got) == len(L)  # dedup keeps left cardinality
    assert got.loc[got.k.isin([2, 3]), "__has"].notna().all()
    assert got.loc[~got.k.isin([2, 3]), "__has"].isna().all()


def test_empty_right_side():
    empty = pd.DataFrame({"ck": pd.Series([], dtype="int64")})
    anti = bucketed_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(empty),
        "k",
        right_on="ck",
        how="anti",
        num_buckets=4,
    ).to_pandas()
    assert len(anti) == len(L)
    inner = bucketed_join(
        ray.data.from_pandas(L),
        ray.data.from_pandas(empty),
        "k",
        right_on="ck",
        how="inner",
        num_buckets=4,
    ).to_pandas()
    assert len(inner) == 0


def test_empty_left_side():
    """A left side with no rows ships no schema carrier; the ranges that
    hold only the right side's carriers return no rows for every kind."""
    empty = pd.DataFrame(
        {"k": pd.Series([], dtype="int64"), "a": pd.Series([], dtype="object")}
    )
    for how in ("inner", "left", "semi", "anti"):
        got = bucketed_join(
            ray.data.from_pandas(empty),
            ray.data.from_pandas(R),
            "k",
            right_on="ck",
            how=how,
            num_buckets=4,
        )
        assert got.count() == 0, how


def test_zero_row_right_left_join_raises_descriptive():
    """An all-empty right side ships no schema carrier (Ray invokes no UDF
    on a 0-row block), so no bucket range knows its schema; how='left'
    must fail LOUDLY instead of silently dropping the right columns.
    (inner/semi/anti stay correct: tested in test_empty_right_side.)"""
    import pytest

    empty = pd.DataFrame(
        {"ck": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="float64")}
    )
    with pytest.raises(Exception, match="produced no blocks"):
        bucketed_join(
            ray.data.from_pandas(L),
            ray.data.from_pandas(empty),
            "k",
            right_on="ck",
            how="left",
            num_buckets=4,
        ).to_pandas()


def test_blockless_right_left_join_raises():
    """A right dataset with zero BLOCKS has an unknowable schema; a left
    join must fail loudly instead of silently dropping the right columns."""
    import pytest

    blockless = ray.data.from_items([]).map_batches(lambda t: t)
    with pytest.raises(Exception):
        bucketed_join(
            ray.data.from_pandas(L), blockless, "k", how="left", num_buckets=4
        ).to_pandas()

