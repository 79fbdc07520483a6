"""Graph algorithms over the materialized edge table.

J7/J8 analogs (``include_relation_provider.py:69-133``,
``tools/find_impacted_sources.py``): transitive closure / reachability as an
iterative loop of broadcast semi-joins — frontier ⋈ edges until fixpoint.
The reference needs this for header-impact analysis (which sources
transitively include a changed header); the web analog is link/co-occurrence
reachability from seed entities.

Also the A4-analog head-key probe (``clangd_symbol_nodes_builder.py:290-307``):
per-key mention counts, descending — the statistic that drives salting /
bucket-count decisions for skewed keys.

BFS, connected components, PageRank, HITS and triangles are size-gated
by the one bounded drain (``joins.drain``): a per-block map over the edges
collects on the driver and aborts once it passes ``broadcast_threshold``
rows or ``joins.BROADCAST_BYTES`` bytes.  Under the cap the algorithm
finishes on the driver with no exchange: a BFS to any depth, components,
PageRank, HITS or triangles runs no Ray Data execution over a
materialized edge set whose blocks sum to at most ``BROADCAST_BYTES``
(the drain reads its blocks on the driver) and one over a lazy one.
Past the cap BFS drains one hop at a time while its visited set stays
under the cap.  After that every algorithm runs in supersteps
(``_superstep``, Pregel-style): a round is ONE exchange of
tagged rows keyed by node (out-edges by src, per-node state by node,
last round's messages by dst), and a per-algorithm polars kernel per
bucket range writes the new state, the carried edges and the next
round's messages.  Components adds one label-keyed pointer-chase
exchange per round; triangles are three rounds (open wedges, close them,
count the credits).  Only per-block counts and sums reach the driver,
so a web-scale frontier or edge set (hop-2 of a popular entity can be
O(nodes)) never does.
"""

from __future__ import annotations

import logging

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .joins import collect, drain
from .shuffle import _add_bucket_arrow, _compat, _range_starts, _reduce_ranges
from .shuffle import auto_num_buckets, drop_empty_blocks

BROADCAST_THRESHOLD = 100_000  # rows; above this a BFS set stays distributed
MAX_HOPS = 25  # BFS hop cap; the bow-tie and reachability oracles share it

log = logging.getLogger(__name__)


def _nonempty_blocks(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` without the 0-row blocks a map would pass on column-less
    (logged as schema drift) when it is materialized; a lazy ``ds`` as is.
    Only a distributed path needs it: the drain skips 0-row blocks."""
    from ray.data.dataset import MaterializedDataset

    return drop_empty_blocks(ds) if isinstance(ds, MaterializedDataset) else ds


_PAIRS = pa.schema([("src", pa.string()), ("dst", pa.string()), ("w", pa.int64())])


def _summed(t: pa.Table) -> pa.Table:
    g = t.group_by(["src", "dst"]).aggregate([("w", "sum")])
    return pa.table({"src": g["src"], "dst": g["dst"], "w": g["w_sum"]})


def _edge_pairs(src_col: str, dst_col: str, weight_col: str | None = None):
    """Per-batch map to the distinct (src, dst) string pairs, each with its
    summed int64 weight ``w`` (the row count when ``weight_col`` is None)."""

    def f(t: pa.Table) -> pa.Table:
        w = pa.array(np.ones(len(t), dtype=np.int64))
        if weight_col is not None:
            w = pc.cast(t[weight_col], pa.int64())
        src, dst = (pc.cast(t[c], pa.string()) for c in (src_col, dst_col))
        return _summed(pa.table({"src": src, "dst": dst, "w": w}))

    return f


def _indexed(pairs: pa.Table):
    """Drained ``_edge_pairs`` summed across batches: (sorted node array,
    src index, dst index, w) with numpy indices into the node array."""
    t = _summed(pairs)
    ends = pc.unique(pa.concat_arrays([t[c].combine_chunks() for c in ("src", "dst")]))
    nodes = ends.take(pc.sort_indices(ends))
    src, dst = (pc.index_in(t[c], value_set=nodes).to_numpy() for c in ("src", "dst"))
    return nodes, src, dst, t["w"].to_numpy()


# The kinds of the tagged rows of a distributed round: out-edge (keyed by
# its src), node state, message (keyed by its target), in-edge (keyed by
# its dst), label pointer (keyed by the label) and open triangle wedge
# (keyed by its middle corner, ``to`` its high corner, ``via`` its low one).
_EDGE, _STATE, _MSG, _BACK, _PTR, _WEDGE = range(6)


def _rows_schema(key: pa.DataType) -> pa.Schema:
    """The one schema of a distributed round's rows: ``node`` is the row's
    key, ``to`` an edge's other end (or a components label), ``v`` and
    ``w`` the algorithm's integers."""
    ints = [("v", pa.int64()), ("w", pa.int64())]
    return pa.schema([("kind", pa.int8()), ("node", key), ("to", key), *ints])


def _of(df: pl.DataFrame, kind: int) -> pl.DataFrame:
    return df.filter(pl.col("kind") == kind)


def _rows(*tagged: tuple[int, pl.DataFrame]) -> pl.DataFrame:
    """``(kind, frame)`` pairs as one frame of tagged rows, the columns a
    frame lacks null."""
    return pl.concat(
        [f.with_columns(kind=pl.lit(k, pl.Int8)) for k, f in tagged],
        how="diagonal_relaxed",
    )


def _round_map(kernel, schema: pa.Schema, num_buckets: int):
    """Per-block ``kernel`` (polars frame -> tagged rows), its output cast
    to ``schema`` with the ``__bucket`` of each row's ``node`` appended.
    The exchange's 0-row bucket ranges keep their input's columns, so
    every block of every round has this one schema and Ray logs no schema
    drift."""
    bucket = _add_bucket_arrow(["node"], num_buckets)

    def f(t: pa.Table) -> pa.Table:
        out = _compat(kernel(pl.from_arrow(t)).to_arrow())
        cols = [
            out[c.name].cast(c.type) if c.name in out.column_names
            else pa.nulls(len(out), c.type)
            for c in schema
        ]
        return bucket(pa.Table.from_arrays(cols, schema=schema))

    return f


def _superstep(
    rows: ray.data.Dataset, kernel, schema: pa.Schema, num_buckets: int
) -> ray.data.Dataset:
    """One distributed graph round (a Pregel superstep, Malewicz et al.
    2010): ONE exchange of the tagged ``rows`` on the ``__bucket`` of
    their ``node`` (``shuffle._reduce_ranges``: the rows carry their
    final bucket), then ``kernel`` once per bucket range
    over the messages, state and edges of every node in the range; it
    returns the next round's rows.  Materialized, because a union of live
    exchange outputs stalls Ray's streaming executor."""
    reducer = _round_map(kernel, schema, num_buckets)
    starts = _range_starts(rows, num_buckets)
    return _reduce_ranges(rows, reducer, num_buckets, starts).materialize()


def _sums(rows: ray.data.Dataset, what: str, *exprs: pl.Expr) -> list[int]:
    """Each polars expression summed over a round's rows: one small
    ``joins.collect`` of per-block partial sums."""
    names = [f"s{i}" for i in range(len(exprs))]
    schema = pa.schema([(n, pa.int64()) for n in names])

    def partial(t: pa.Table) -> pa.Table:
        sums = [e.sum().cast(pl.Int64).alias(n) for e, n in zip(exprs, names)]
        return pl.from_arrow(t).select(sums).to_arrow().cast(schema)

    t = collect(rows, what, partial, schema=schema)
    return [pc.sum(t[n]).as_py() or 0 for n in names]


def _states(rows: ray.data.Dataset, columns) -> ray.data.Dataset:
    """The last round's state rows as the result table ``columns(state)``."""
    return _nonempty_blocks(rows).map_batches(
        lambda t: columns(t.filter(pc.equal(t["kind"], _STATE))),
        batch_format="pyarrow",
    )


def _pair_superstep(
    edges: ray.data.Dataset, src_col: str, dst_col: str, weight_col: str | None, setup
):
    """The first superstep of PageRank and HITS, with the round schema and
    bucket count: ``setup(pairs, nodes)`` gets a bucket range's (src,
    dst) string pairs with their summed weights (their row count when
    ``weight_col`` is None) and its nodes, destinations included, and
    returns the range's rows."""
    edges = _nonempty_blocks(edges)
    schema, buckets = _rows_schema(pa.string()), auto_num_buckets(edges)
    weight = pl.lit(1) if weight_col is None else pl.col(weight_col)

    def edge_rows(df: pl.DataFrame) -> pl.DataFrame:
        e = df.select(
            node=pl.col(src_col).cast(pl.String),
            to=pl.col(dst_col).cast(pl.String),
            w=weight.cast(pl.Int64),
        ).group_by("node", "to").agg(pl.col("w").sum())
        return _rows((_EDGE, e), (_STATE, e.select(node="to").unique()))

    def pairs(df: pl.DataFrame) -> pl.DataFrame:
        e = _of(df, _EDGE).group_by("node", "to").agg(pl.col("w").sum())
        nodes = pl.concat([e.select("node"), _of(df, _STATE).select("node")])
        return setup(e, nodes.unique())

    rows = edges.map_batches(_round_map(edge_rows, schema, buckets), batch_format="pyarrow")
    return _superstep(rows, pairs, schema, buckets), schema, buckets


def _bfs_round(hop: int, send: bool):
    """BFS kernel of hop ``hop``: the message targets not yet visited are
    visited at ``hop`` and, when ``send``, message their out-edges' ends."""

    def kernel(df: pl.DataFrame) -> pl.DataFrame:
        e = _of(df, _EDGE).select("node", "to").unique()
        seen = _of(df, _STATE).select("node", "v")
        new = _of(df, _MSG).select("node").unique().join(seen, on="node", how="anti")
        new = new.with_columns(v=pl.lit(hop, pl.Int64))
        if not send:
            return _rows((_STATE, seen), (_STATE, new))
        sent = e.join(new, on="node", how="semi").select(node="to").unique()
        return _rows((_EDGE, e), (_STATE, seen), (_STATE, new), (_MSG, sent))

    return kernel


def reachable_from_ds(
    edges: ray.data.Dataset,
    seeds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_hops: int | None = None,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """Distributed BFS reachability: Dataset of (node, hops), seeds at 0.

    ``max_hops=None`` runs to fixpoint, capped at ``MAX_HOPS``; when that
    cap stops the BFS with nodes still on the frontier one WARNING names
    the cap and the frontier count.  An explicit ``max_hops`` (a
    neighbourhood query) stops quietly.

    One drain first: the per-block distinct (src, dst) pairs, their
    values kept (dictionary-encoded, not cast).  Under
    ``broadcast_threshold`` rows every hop runs on that driver table
    (frontier ``is_in``, unique destinations, set difference with the
    visited set), so a BFS to any depth is no Ray Data execution over a
    materialized edge set under ``joins.BROADCAST_BYTES`` and one over a
    lazy one.  Past it, while the visited set is under the threshold, a
    hop is one drain: the frontier ships as an ``is_in`` value set, each
    block emits its unique destinations, and the driver subtracts the
    visited set.  When a hop's drain or the visited set passes the
    threshold, the hops left are supersteps (``_superstep``) from that
    state: the visited set and the messages of the frontier's out-edges
    are the first round's input, and each hop is ONE exchange whose
    kernel adds the unvisited message targets at that hop and has them
    message their own out-edges.  Only the per-hop count of new nodes
    reaches the driver.  The result is one ``from_arrow`` until the
    supersteps start.
    """
    capped = max_hops is None
    max_hops = MAX_HOPS if capped else max_hops

    def dsts(t: pa.Table) -> pa.Table:
        return pa.table({"node": pc.unique(t[dst_col].combine_chunks())})

    def step(t: pa.Table, frontier: pa.Array) -> pa.Table:
        return dsts(t.filter(pc.is_in(t[src_col], value_set=frontier)))

    def distinct_pairs(t: pa.Table) -> pa.Table:
        # dictionary-encoded: about half the bytes the driver maps
        g = t.group_by([src_col, dst_col]).aggregate([])
        return pa.table({c: pc.dictionary_encode(g[c]) for c in (src_col, dst_col)})

    pairs = drain(edges, distinct_pairs, max_rows=broadcast_threshold)
    if pairs is None:
        edges = _nonempty_blocks(edges)
    hops = dict.fromkeys(sorted(set(seeds)), 0)
    frontier, hop = list(hops), 0
    # with the pairs drained the visited set is bounded by their endpoints
    while (
        frontier
        and hop < max_hops
        and (pairs is not None or len(hops) <= broadcast_threshold)
    ):
        if pairs is not None:
            drained = step(pairs, pa.array(frontier)) if pairs.num_rows else pairs
        else:
            ref = ray.put(pa.array(frontier))
            drained = drain(
                edges,
                lambda t, ref=ref: step(t, ray.get(ref)),
                max_rows=broadcast_threshold,
            )
            if drained is None:
                break
        hop += 1
        reached = set(drained["node"].to_pylist()) if drained.num_rows else set()
        frontier = sorted(reached - hops.keys())
        hops.update(dict.fromkeys(frontier, hop))
    state = pa.table({"node": list(hops), "hops": pa.array(hops.values(), pa.int64())})
    visited = ray.data.from_arrow(state)
    left = len(frontier)
    if frontier and hop < max_hops:
        # nodes keep their type (the seeds', as the edge columns hold them)
        schema = _rows_schema(state["node"].type)
        buckets = auto_num_buckets(edges)
        ref = ray.put(pa.array(frontier, state["node"].type))

        def edge_rows(df: pl.DataFrame) -> pl.DataFrame:
            e = df.select(node=src_col, to=dst_col).unique()
            front = pl.from_arrow(ray.get(ref))
            sent = e.filter(pl.col("node").is_in(front)).select(node="to").unique()
            return _rows((_EDGE, e), (_MSG, sent))

        seen = _round_map(
            lambda df: _rows((_STATE, df.select("node", v="hops"))), schema, buckets
        )(state)
        rows = edges.map_batches(
            _round_map(edge_rows, schema, buckets), batch_format="pyarrow"
        ).union(ray.data.from_arrow(seen))
        for hop in range(hop + 1, max_hops + 1):
            rows = _superstep(rows, _bfs_round(hop, hop < max_hops), schema, buckets)
            (left,) = _sums(
                rows, "BFS frontier", (pl.col("kind") == _STATE) & (pl.col("v") == hop)
            )
            if not left:
                break
        visited = _states(rows, lambda s: pa.table({"node": s["node"], "hops": s["v"]}))
    if capped and left:
        log.warning(
            "BFS stopped at the MAX_HOPS=%d hop cap with %d node(s) still on "
            "the frontier",
            MAX_HOPS,
            left,
        )
    return visited


def reachable_from(
    edges: ray.data.Dataset,
    seeds: set[str],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_hops: int | None = None,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> dict[str, int]:
    """BFS reachability as a driver dict: node -> hop distance (seeds at 0).

    Thin collector over ``reachable_from_ds`` — returning a dict means the
    RESULT is driver-sized by contract (use the dataset form when the
    reachable set itself is web-scale); the traversal underneath runs on
    the driver while its sets stay under ``broadcast_threshold`` and in
    supersteps past it."""
    out = reachable_from_ds(
        edges,
        seeds,
        src_col=src_col,
        dst_col=dst_col,
        max_hops=max_hops,
        broadcast_threshold=broadcast_threshold,
    )
    t = collect(out, "reachable set")
    return dict(zip(t["node"].to_pylist(), t["hops"].to_pylist()))


def kg_reachability(sf_dir: str) -> pa.Table:
    """Driver query: entities reachable from the head entity 'data' via
    co-occurrence edges, with hop distance.

    Output: (name, hops) — deterministic BFS over the deduped directed
    co-occurrence triple set.  Oracle: recursive CTE in DuckDB.
    """
    from ..pipelines.docs_kg import kg_triples

    triples = kg_triples(sf_dir).select_columns(["subj_name", "obj_name"])
    dist = reachable_from(triples, {"data"}, src_col="subj_name", dst_col="obj_name")
    names = sorted(dist)
    return pa.table(
        {
            "name": pa.array(names, type=pa.string()),
            "hops": pa.array([dist[n] for n in names], type=pa.int64()),
        }
    )


def _components_round(df: pl.DataFrame) -> pl.DataFrame:
    """Min-label kernel: a node with no state yet labels itself, a
    node's label falls to the least message it got, a node whose label
    changed sends it to its neighbours, and a node that is not its own
    label points its label at itself for the chase."""
    e = _of(df, _EDGE).select("node", "to").unique()
    s = (
        e.select("node")  # every node has an edge in the undirected view
        .unique()
        .join(_of(df, _STATE).select("node", old="to"), on="node", how="left")
        .join(
            _of(df, _MSG).group_by("node").agg(best=pl.col("to").min()),
            on="node",
            how="left",
        )
        .with_columns(to=pl.min_horizontal(pl.coalesce("old", "node"), "best"))
    )
    changed = s.filter(pl.col("old").is_null() | (pl.col("to") != pl.col("old")))
    sent = e.join(changed.select("node", label="to"), on="node")
    return _rows(
        (_EDGE, e),
        (_STATE, s.select("node", "to")),
        (_MSG, sent.select(node="to", to="label")),
        (_PTR, s.filter(pl.col("to") != pl.col("node")).select(node="to", to="node")),
    )


def _components_chase(df: pl.DataFrame) -> pl.DataFrame:
    """Pointer-jumping kernel: the label of a pointer row's label, when
    lower, is a message to the pointer's ``via`` node."""
    label = _of(df, _STATE).select("node", label="to")
    jump = _of(df, _PTR).join(label, on="node").filter(pl.col("label") < pl.col("node"))
    return _rows((_MSG, jump.select(node="to", to="label")))


def connected_components_ds(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 50,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
    round_edge_counts: list[int] | None = None,
) -> ray.data.Dataset:
    """Connected components of the undirected graph: Dataset of
    (node, label), label = lexicographic min node name of the component.

    Size-gated by one drain (``joins.drain``): the per-batch distinct
    (src, dst) pairs collect on the driver, and when they stay
    under ``broadcast_threshold`` rows a union-find over them finishes the
    components with no exchange — no Ray Data execution over a
    materialized edge set under ``joins.BROADCAST_BYTES``, one over a lazy
    one.  Past the cap, min-label propagation in supersteps
    (``_superstep``): the first round's kernel labels every node by
    itself and sends that label along every edge of the undirected view;
    each later round is ONE exchange on ``node`` whose kernel lowers each
    node's label to the least message it got, plus one label-keyed chase
    exchange.

    - **Delta rounds**: only nodes whose label changed send it to their
      neighbours, so once most of the graph has converged a round moves
      O(edges touching still-moving nodes) messages, not O(|E|).  Exact:
      any label a node holds went to all its neighbours in the round
      after it was acquired, and labels only decrease.
    - **Exact convergence**: the kernel compares each node's new label
      with its old one, and the loop stops when a round sends no message,
      i.e. no label changed.
    - **Pointer jumping**: the chase exchange takes the state rows plus a
      (label, via) pointer row for every node that is not its own label,
      and proposes the label's label to ``via`` for the next round, so
      chains halve every round: O(log n) rounds even on path graphs, not
      O(diameter).

    Hitting ``max_rounds`` without convergence raises (loud failure;
    silently returning partial labels would be a wrong answer that looks
    right).

    ``round_edge_counts``, when given, receives the number of neighbour
    messages each round sends (test instrumentation for the delta
    shrinkage).
    """
    drained = drain(
        edges, _edge_pairs(src_col, dst_col), max_rows=broadcast_threshold, schema=_PAIRS
    )
    if drained is not None:
        nodes, src, dst, _ = _indexed(drained)
        parent = list(range(len(nodes)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, d in zip(src.tolist(), dst.tolist()):
            rs, rd = find(s), find(d)
            # nodes are sorted: the min index, as root, IS the min name
            parent[max(rs, rd)] = min(rs, rd)
        roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
        labels = pa.table({"node": nodes, "label": nodes.take(roots)})
        return ray.data.from_arrow(labels)

    edges = _nonempty_blocks(edges)
    schema, buckets = _rows_schema(pa.string()), auto_num_buckets(edges)

    def edge_rows(df: pl.DataFrame) -> pl.DataFrame:
        p = df.select(
            node=pl.col(src_col).cast(pl.String), to=pl.col(dst_col).cast(pl.String)
        )
        return _rows((_EDGE, pl.concat([p, p.select(node="to", to="node")]).unique()))

    def chase_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["kind"], pa.array([_STATE, _PTR], pa.int8())))

    rows = edges.map_batches(_round_map(edge_rows, schema, buckets), batch_format="pyarrow")
    for _ in range(max_rounds + 1):  # round 0 labels every node by itself
        out = _superstep(rows, _components_round, schema, buckets)
        sent, pointers = _sums(
            out, "components round", pl.col("kind") == _MSG, pl.col("kind") == _PTR
        )
        if not sent:
            return _states(out, lambda s: pa.table({"node": s["node"], "label": s["to"]}))
        if round_edge_counts is not None:
            round_edge_counts.append(sent)
        rows = out
        if pointers:
            chase = out.map_batches(chase_rows, batch_format="pyarrow")
            rows = out.map_batches(
                lambda t: t.filter(pc.not_equal(t["kind"], _PTR)), batch_format="pyarrow"
            ).union(_superstep(chase, _components_chase, schema, buckets))
    raise RuntimeError(
        f"connected_components_ds did not converge in {max_rounds} rounds"
    )


def kg_components(sf_dir: str) -> ray.data.Dataset:
    """Driver query: connected components of the entity co-occurrence
    graph (undirected view of the deduped triple set).

    Output: (name, component) — component = lexicographic min entity name
    in the component.  Oracle: recursive min-reachability CTE."""
    from ..pipelines.docs_kg import kg_triples

    triples = kg_triples(sf_dir).select_columns(["subj_name", "obj_name"])
    comp = connected_components_ds(
        triples, src_col="subj_name", dst_col="obj_name"
    )
    return comp.map_batches(
        lambda t: pa.table({"name": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
    )


PR_SCALE = 1_000_000  # fixed-point PageRank scale (integer-exact oracle)
PR_ITERS = 5  # fixed iteration count, unrolled identically in the oracle

_COOC_PAIRS_CTES = """tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
        generate_subscripts(string_split(text, ' '), 1) AS i FROM documents),
{VOCAB},
pairs AS (
  SELECT DISTINCT a.tok AS w1, b.tok AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  WHERE a.tok IN (SELECT name FROM vocab) AND b.tok IN (SELECT name FROM vocab)
)"""


_NO_SEED_IN_GRAPH = "personalized pagerank: no seed of {} is a node of the graph"


def _pagerank_engine(
    edges: ray.data.Dataset,
    *,
    src_col: str,
    dst_col: str,
    weight_col: str | None,
    seeds: list[str] | None,
    iters: int,
    scale: int,
    broadcast_threshold: int,
) -> ray.data.Dataset:
    """Shared fixed-point PageRank engine behind :func:`pagerank_ds`,
    :func:`pagerank_weighted_ds` and :func:`pagerank_personalized_ds`.

    One arithmetic covers all three variants (each floor identical to the
    matching unrolled oracle):

    - edge weight: ``weight_col`` given -> multi-edges SUM their weights
      (one exchange) and each edge contributes ``(pr * w) // wsum(src)``;
      absent -> the DISTINCT edge set with w = 1, i.e. ``pr // outdeg``.
    - teleport: ``seeds`` given -> init/teleport mass only on the seed
      set (scale // |seeds|); absent -> uniform (scale // n_nodes).

    Size gate (the ``connected_components_ds`` drain): the per-batch
    distinct (src, dst) pairs with their summed weights collect on the
    driver, and under ``broadcast_threshold`` rows a numpy kernel ranks
    them with no exchange — no Ray Data execution over a materialized
    edge set under ``joins.BROADCAST_BYTES``, one over a lazy one.  Past
    the cap it runs ``iters + 2`` supersteps (``_superstep``), one
    exchange each: the first sums the edge weights per (src, dst) and
    lists every node, the second sets the initial ranks, and each later
    one ranks every node from the contributions it got.  A kernel that
    sends divides a node's rank over its out-edges by their summed
    weight, pre-summed per destination.  Only the node and seed counts
    reach the driver; rank state never does.
    """
    seed_sorted = sorted(set(seeds)) if seeds is not None else None
    if seed_sorted is not None and not seed_sorted:
        raise ValueError("personalized pagerank needs a non-empty seed set")
    seed_arr = (
        pa.array(seed_sorted, type=pa.string()) if seed_sorted else None
    )

    def start(n_nodes: int) -> tuple[int, int]:
        """(initial, teleport) rank of a seed, or of every node."""
        init = scale // max(1, len(seed_sorted) if seed_sorted else n_nodes)
        return init, (15 * init) // 100

    pair_rows = _edge_pairs(src_col, dst_col, weight_col)
    drained = drain(edges, pair_rows, max_rows=broadcast_threshold, schema=_PAIRS)
    if drained is not None:
        node_arr, src, dst, w = _indexed(drained)
        n_nodes = len(node_arr)
        if weight_col is None:  # the DISTINCT edge set, each edge weight 1
            w = np.ones(len(src), dtype=np.int64)
        init, tele = start(n_nodes)
        wsum = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(wsum, src, w)
        if seed_arr is None:
            pr = np.full(n_nodes, init, dtype=np.int64)
            tele_vec = np.full(n_nodes, tele, dtype=np.int64)
        else:
            is_seed = pc.is_in(node_arr, value_set=seed_arr).to_numpy(
                zero_copy_only=False
            )
            if not is_seed.any():
                raise ValueError(_NO_SEED_IN_GRAPH.format(seed_sorted))
            pr = np.where(is_seed, init, 0).astype(np.int64)
            tele_vec = np.where(is_seed, tele, 0).astype(np.int64)
        for _ in range(iters):
            contrib = (pr[src] * w) // wsum[src]
            s_ = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(s_, dst, contrib)
            pr = tele_vec + (85 * s_) // 100
        return ray.data.from_arrow(
            pa.table({"node": node_arr, "pr_scaled": pa.array(pr, type=pa.int64())})
        )

    seeded = pl.col("node").is_in(seed_sorted) if seed_sorted else pl.lit(True)

    def setup(e: pl.DataFrame, nodes: pl.DataFrame) -> pl.DataFrame:
        if weight_col is None:  # the DISTINCT edge set, each edge weight 1
            e = e.with_columns(w=pl.lit(1, pl.Int64))
        return _rows((_EDGE, e), (_STATE, nodes))

    def rank(update: bool, send: bool):
        def kernel(df: pl.DataFrame) -> pl.DataFrame:
            s = _of(df, _STATE).select("node")
            if update:
                got = _of(df, _MSG).group_by("node").agg(c=pl.col("v").sum())
                s = s.join(got, on="node", how="left")
                v = pl.when(seeded).then(tele).otherwise(0) + (
                    85 * pl.col("c").fill_null(0)
                ) // 100
            else:
                v = pl.when(seeded).then(init).otherwise(0)
            s = s.select("node", v=v.cast(pl.Int64))
            if not send:
                return _rows((_STATE, s))
            e = _of(df, _EDGE).select("node", "to", "w")
            c = e.join(s, on="node").select(
                node="to",
                v=(pl.col("v") * pl.col("w")) // pl.col("w").sum().over("node"),
            )
            sent = c.group_by("node").agg(pl.col("v").sum())
            return _rows((_EDGE, e), (_STATE, s), (_MSG, sent))

        return kernel

    out, schema, buckets = _pair_superstep(edges, src_col, dst_col, weight_col, setup)
    is_node = pl.col("kind") == _STATE
    n_nodes, n_seeds = _sums(out, "PageRank nodes", is_node, is_node & seeded)
    if seed_sorted and not n_seeds:
        raise ValueError(_NO_SEED_IN_GRAPH.format(seed_sorted))
    init, tele = start(n_nodes)
    for i in range(iters + 1):  # round 0 sets the initial ranks
        out = _superstep(out, rank(i > 0, i < iters), schema, buckets)
    return _states(out, lambda s: pa.table({"node": s["node"], "pr_scaled": s["v"]}))


def pagerank_ds(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """Integer-exact PageRank over the DISTINCT directed edge set:
    Dataset of (node, pr_scaled).

    Fixed-point arithmetic so the DuckDB oracle reproduces every bit:
    init = scale // n_nodes; each of ``iters`` rounds computes
    pr(i) = (15 * init) // 100 + (85 * sum_{j->i} (pr(j) // outdeg(j))) // 100
    — the damping split and both floor divisions are identical on both
    sides (dangling-node mass is dropped, not redistributed: a defined,
    documented variant chosen for exact reproducibility)."""
    return _pagerank_engine(
        edges,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=None,
        seeds=None,
        iters=iters,
        scale=scale,
        broadcast_threshold=broadcast_threshold,
    )


def pagerank_weighted_ds(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """Weighted PageRank: link multiplicities steer the mass split with
    per-edge ``(pr(j) * w_ji) // wsum(j)`` floors; multi-edges in the
    input sum their weights first.  int64 headroom: pr * w <= scale * max
    edge weight — fine through ~1e12 total link count per pair.

    Output: (node, pr_scaled)."""
    return _pagerank_engine(
        edges,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=weight_col,
        seeds=None,
        iters=iters,
        scale=scale,
        broadcast_threshold=broadcast_threshold,
    )


def pagerank_personalized_ds(
    edges: ray.data.Dataset,
    seeds: list[str],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """Personalized PageRank: teleport mass returns to the SEED set only —
    the relevance-to-query statistic a graph-RAG retrieval layer ranks
    expansion candidates with (the reference's 1-hop context subset,
    ``code_graph_rag_generator.py`` J5, generalized to a damped
    multi-hop).  init = scale // |seeds| on seeds else 0; teleport only
    on seeds.  Output: (node, pr_scaled); nodes unreachable from the
    seeds rank 0.  Raises ``ValueError`` when no seed is a node of the
    graph (the ranking would be all zeros)."""
    return _pagerank_engine(
        edges,
        src_col=src_col,
        dst_col=dst_col,
        weight_col=None,
        seeds=seeds,
        iters=iters,
        scale=scale,
        broadcast_threshold=broadcast_threshold,
    )


def pagerank_personalized_oracle_sql(
    seeds: list[str],
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    *,
    graph_ctes: str = _COOC_PAIRS_CTES,
    node_col: str = "name",
) -> str:
    """Unrolled personalized-PageRank CTE chain — identical integer
    arithmetic to ``pagerank_personalized_ds``."""
    seed_vals = ", ".join(f"('{s}')" for s in sorted(set(seeds)))
    n_seeds = len(set(seeds))
    init = f"({scale} // {n_seeds})"
    tele = f"((15 * ({scale} // {n_seeds})) // 100)"
    chain = ""
    prev = "pr0"
    for i in range(1, iters + 1):
        chain += f""",
pr{i} AS (
  SELECT nd.n,
         CASE WHEN nd.n IN (SELECT s FROM seeds) THEN {tele} ELSE 0 END
         + (85 * COALESCE(sm.c, 0)) // 100 AS v
  FROM nodes nd LEFT JOIN (
    SELECT p.w2 AS n, CAST(sum(x.v // d.outdeg) AS BIGINT) AS c
    FROM pairs p JOIN {prev} x ON x.n = p.w1 JOIN deg d ON d.n = p.w1
    GROUP BY p.w2
  ) sm ON sm.n = nd.n
)"""
        prev = f"pr{i}"
    return f"""
WITH
{graph_ctes},
seeds AS (SELECT * FROM (VALUES {seed_vals}) s(s)),
nodes AS (SELECT w1 AS n FROM pairs UNION SELECT w2 FROM pairs),
deg AS (SELECT w1 AS n, CAST(count(*) AS BIGINT) AS outdeg FROM pairs GROUP BY w1),
pr0 AS (
  SELECT n, CASE WHEN n IN (SELECT s FROM seeds) THEN {init} ELSE 0 END AS v
  FROM nodes){chain}
SELECT n AS {node_col}, CAST(v AS BIGINT) AS pr_scaled FROM {prev}
"""


def kg_pagerank_personalized(sf_dir: str) -> ray.data.Dataset:
    """Driver query: personalized PageRank of the entity co-occurrence
    graph seeded at the head entity 'data' — the graph-RAG expansion
    ranking for a query about that entity.  Output: (name, pr_scaled)."""
    from ..pipelines.docs_kg import kg_triples

    triples = kg_triples(sf_dir).select_columns(["subj_name", "obj_name"])
    pr = pagerank_personalized_ds(
        triples, ["data"], src_col="subj_name", dst_col="obj_name"
    )
    return pr.map_batches(
        lambda t: pa.table({"name": t["node"], "pr_scaled": t["pr_scaled"]}),
        batch_format="pyarrow",
    )


def pagerank_weighted_oracle_sql(
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    *,
    graph_ctes: str,
    node_col: str = "name",
) -> str:
    """Unrolled weighted-PageRank CTE chain — identical integer arithmetic
    to ``pagerank_weighted_ds``.  ``graph_ctes`` must define
    ``pairs(w1, w2, w)``: the aggregated weighted directed edge set."""
    chain = ""
    prev = "pr0"
    for i in range(1, iters + 1):
        chain += f""",
pr{i} AS (
  SELECT nd.n,
         (SELECT tele FROM params)
         + (85 * COALESCE(s.c, 0)) // 100 AS v
  FROM nodes nd LEFT JOIN (
    SELECT p.w2 AS n, CAST(sum((x.v * p.w) // d.wsum) AS BIGINT) AS c
    FROM pairs p JOIN {prev} x ON x.n = p.w1 JOIN deg d ON d.n = p.w1
    GROUP BY p.w2
  ) s ON s.n = nd.n
)"""
        prev = f"pr{i}"
    return f"""
WITH
{graph_ctes},
nodes AS (SELECT w1 AS n FROM pairs UNION SELECT w2 FROM pairs),
deg AS (SELECT w1 AS n, CAST(sum(w) AS BIGINT) AS wsum FROM pairs GROUP BY w1),
params AS (
  SELECT {scale} // count(*) AS init,
         (15 * ({scale} // count(*))) // 100 AS tele
  FROM nodes
),
pr0 AS (SELECT n, (SELECT init FROM params) AS v FROM nodes){chain}
SELECT n AS {node_col}, CAST(v AS BIGINT) AS pr_scaled FROM {prev}
"""


def kg_pagerank(sf_dir: str) -> ray.data.Dataset:
    """Driver query: fixed-point PageRank of the entity co-occurrence
    graph (the relevance-ranking statistic of a graph-RAG retrieval layer,
    A1/A2 statistics-family analog).

    Output: (name, pr_scaled) — pr x 10^6, integer-exact vs the unrolled
    SQL oracle."""
    from ..pipelines.docs_kg import kg_triples

    triples = kg_triples(sf_dir).select_columns(["subj_name", "obj_name"])
    pr = pagerank_ds(triples, src_col="subj_name", dst_col="obj_name")
    return pr.map_batches(
        lambda t: pa.table(
            {"name": t["node"], "pr_scaled": t["pr_scaled"]}
        ),
        batch_format="pyarrow",
    )


def pagerank_oracle_sql(
    iters: int = PR_ITERS,
    scale: int = PR_SCALE,
    *,
    graph_ctes: str = _COOC_PAIRS_CTES,
    node_col: str = "name",
) -> str:
    """Unrolled fixed-iteration PageRank CTE chain (recursive CTEs cannot
    aggregate over their recursive reference, so each round is its own
    plain aggregate CTE — identical integer arithmetic to pagerank_ds).

    ``graph_ctes`` must define ``pairs(w1, w2)`` — the distinct directed
    edge set; any graph family (entity co-occurrence, host link graph)
    reuses the same arithmetic by swapping that block."""
    chain = ""
    prev = "pr0"
    for i in range(1, iters + 1):
        chain += f""",
pr{i} AS (
  SELECT nd.n,
         (SELECT tele FROM params)
         + (85 * COALESCE(s.c, 0)) // 100 AS v
  FROM nodes nd LEFT JOIN (
    SELECT p.w2 AS n, CAST(sum(x.v // d.outdeg) AS BIGINT) AS c
    FROM pairs p JOIN {prev} x ON x.n = p.w1 JOIN deg d ON d.n = p.w1
    GROUP BY p.w2
  ) s ON s.n = nd.n
)"""
        prev = f"pr{i}"
    return f"""
WITH
{graph_ctes},
nodes AS (SELECT w1 AS n FROM pairs UNION SELECT w2 FROM pairs),
deg AS (SELECT w1 AS n, CAST(count(*) AS BIGINT) AS outdeg FROM pairs GROUP BY w1),
params AS (
  SELECT {scale} // count(*) AS init,
         (15 * ({scale} // count(*))) // 100 AS tele
  FROM nodes
),
pr0 AS (SELECT n, (SELECT init FROM params) AS v FROM nodes){chain}
SELECT n AS {node_col}, CAST(v AS BIGINT) AS pr_scaled FROM {prev}
"""


HITS_ITERS = 3  # fixed iteration count, unrolled identically in the oracle


def hits_ds(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = HITS_ITERS,
    scale: int = PR_SCALE,
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """HITS hubs/authorities (Kleinberg 1999) over the directed edge set,
    integer-exact: per round, authority = sum of in-neighbor hub scores,
    hub = sum of out-neighbor authority scores, each L1-renormalized to
    ``scale`` with floor division — so the unrolled SQL oracle reproduces
    every bit (the same fixed-point discipline as ``pagerank_ds``).

    Output: (node, auth_scaled, hub_scaled).  Pure sources get
    auth_scaled=0, pure sinks hub_scaled=0.

    Size-gated by one drain (``joins.drain``) of the distinct pairs: a driver
    numpy kernel under ``broadcast_threshold`` rows (no Ray Data execution
    over a materialized edge set under ``joins.BROADCAST_BYTES``, one over
    a lazy one).  Past it, ``2 * iters + 1`` supersteps (``_superstep``),
    one exchange each: the first lists the distinct edges both ways and
    every node, and sends each node's raw hub score 1 along its
    out-edges; each half-step's kernel then sums the messages it got,
    each normalized as ``scale * raw // total`` with the previous
    half-step's L1 total, and sends its own raw sum along its in-edges
    (authority) or out-edges (hub).  The totals come from one small
    collect of per-block sums per half-step, never a full collect.
    int64 headroom: scale * total <= 1e6 * 1e6 * n — overflows past
    ~9e18, i.e. n ~ 1e6 at full concentration; raise ``scale`` down if
    ranking larger graphs (disclosed)."""
    drained = drain(
        edges, _edge_pairs(src_col, dst_col), max_rows=broadcast_threshold, schema=_PAIRS
    )
    if drained is not None:
        node_arr, src, dst, _ = _indexed(drained)
        n_nodes = len(node_arr)
        h = np.full(n_nodes, scale // max(1, n_nodes), dtype=np.int64)
        a = np.zeros(n_nodes, dtype=np.int64)
        for _ in range(iters):
            ar = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(ar, dst, h[src])
            a = (scale * ar) // max(1, int(ar.sum()))
            hr = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(hr, src, a[dst])
            h = (scale * hr) // max(1, int(hr.sum()))
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": node_arr,
                    "auth_scaled": pa.array(a, type=pa.int64()),
                    "hub_scaled": pa.array(h, type=pa.int64()),
                }
            )
        )

    def setup(e: pl.DataFrame, nodes: pl.DataFrame) -> pl.DataFrame:
        e = e.select("node", "to")
        one = pl.lit(1, pl.Int64)  # normalized by the node count: scale // n
        return _rows(
            (_EDGE, e),
            (_BACK, e.select(node="to", to="node")),
            (_STATE, nodes.with_columns(v=one)),
            (_MSG, e.select(node="to", v=one)),
        )

    def half_step(total: int, along: int | None):
        """State ``v``: the raw sum of this half-step; ``w``: the
        normalized score of the previous one (the last authority score
        after the last hub half-step)."""

        def kernel(df: pl.DataFrame) -> pl.DataFrame:
            got = _of(df, _MSG).group_by("node").agg(
                c=((scale * pl.col("v")) // total).sum()
            )
            s = _of(df, _STATE).join(got, on="node", how="left").select(
                "node", v=pl.col("c").fill_null(0), w=(scale * pl.col("v")) // total
            )
            if along is None:
                return _rows((_STATE, s))
            fwd, back = (_of(df, k).select("node", "to") for k in (_EDGE, _BACK))
            sent = (fwd if along == _EDGE else back).join(s, on="node")
            return _rows(
                (_EDGE, fwd),
                (_BACK, back),
                (_STATE, s),
                (_MSG, sent.select(node="to", v="v")),
            )

        return kernel

    def l1_total(rows: ray.data.Dataset) -> int:
        (total,) = _sums(rows, "HITS L1 total", pl.col("v").filter(pl.col("kind") == _STATE))
        return max(1, total)

    out, schema, buckets = _pair_superstep(edges, src_col, dst_col, None, setup)
    for i in range(2 * iters):  # authorities send back along in-edges
        along = None if i == 2 * iters - 1 else (_BACK if i % 2 == 0 else _EDGE)
        out = _superstep(out, half_step(l1_total(out), along), schema, buckets)
    total = l1_total(out)
    return _states(
        out,
        lambda s: pa.table(
            {
                "node": s["node"],
                "auth_scaled": pc.fill_null(s["w"], 0),
                "hub_scaled": pc.divide(pc.multiply(s["v"], scale), total),
            }
        ),
    )


def hits_oracle_sql(
    iters: int = HITS_ITERS,
    scale: int = PR_SCALE,
    *,
    graph_ctes: str = _COOC_PAIRS_CTES,
    node_col: str = "name",
) -> str:
    """Unrolled fixed-iteration HITS CTE chain — identical integer
    arithmetic to ``hits_ds``.  ``graph_ctes`` must define
    ``pairs(w1, w2)``, the distinct directed edge set."""
    # each raw CTE is referenced exactly ONCE downstream (the L1 total is a
    # window sum over the node-joined rows, not a second scalar-subquery
    # reference) — a doubly-referenced CTE would make DuckDB's inlining
    # re-evaluate the whole upstream chain 2x per round (exponential)
    chain = ""
    prev_h = "h0"
    for i in range(1, iters + 1):
        chain += f""",
a{i}raw AS (
  SELECT p.w2 AS n, CAST(sum(x.v) AS BIGINT) AS c
  FROM pairs p JOIN {prev_h} x ON x.n = p.w1 GROUP BY p.w2),
a{i} AS (
  SELECT n, ({scale} * c) // greatest(1, sum(c) OVER ()) AS v
  FROM (SELECT nd.n, COALESCE(r.c, 0) AS c
        FROM nodes nd LEFT JOIN a{i}raw r ON r.n = nd.n)),
h{i}raw AS (
  SELECT p.w1 AS n, CAST(sum(x.v) AS BIGINT) AS c
  FROM pairs p JOIN a{i} x ON x.n = p.w2 GROUP BY p.w1),
h{i} AS (
  SELECT n, ({scale} * c) // greatest(1, sum(c) OVER ()) AS v
  FROM (SELECT nd.n, COALESCE(r.c, 0) AS c
        FROM nodes nd LEFT JOIN h{i}raw r ON r.n = nd.n))"""
        prev_h = f"h{i}"
    return f"""
WITH
{graph_ctes},
nodes AS (SELECT w1 AS n FROM pairs UNION SELECT w2 FROM pairs),
params AS (SELECT {scale} // count(*) AS init FROM nodes),
h0 AS (SELECT n, (SELECT init FROM params) AS v FROM nodes){chain}
SELECT a{iters}.n AS {node_col},
       CAST(a{iters}.v AS BIGINT) AS auth_scaled,
       CAST(h{iters}.v AS BIGINT) AS hub_scaled
FROM a{iters} JOIN h{iters} ON a{iters}.n = h{iters}.n
"""


def prune_orphans_to_fixpoint(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    *,
    protect: set[str] | None = None,
    max_rounds: int = 20,
):
    """A8+A9 analog: iteratively delete nodes with no incident edges, then
    edges whose endpoints vanished, until fixpoint (the reference loops
    DELETE-empty-FOLDER until none remain, ``neo4j_manager.py:144-161``).

    The loop is driver-side but every round's work is distributed: incident
    endpoints come from a bucketed distinct (per-batch pre-dedup), and both
    the node keep and the edge endpoint checks are bucketed semi-joins — no
    edge or node id set ever lands on the driver (VERDICT r1 #9).  Returns
    (nodes, edges) as materialized Datasets.
    """
    from .joins import bucketed_join
    from .shuffle import distinct

    protect = sorted(protect or set())
    for _ in range(max_rounds):
        endpoints = edges.map_batches(
            lambda t: pa.table(
                {
                    "node_id": pa.concat_arrays(
                        [
                            pc.unique(t["src"].combine_chunks()),
                            pc.unique(t["dst"].combine_chunks()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        )
        if protect:
            endpoints = endpoints.union(
                ray.data.from_arrow(
                    pa.table({"node_id": pa.array(protect, type=pa.string())})
                )
            )
        keep = distinct(endpoints, ["node_id"])
        pruned = bucketed_join(nodes, keep, on="node_id", how="semi").materialize()
        if pruned.count() == nodes.count():
            return pruned, edges
        nodes = pruned
        node_ids = nodes.select_columns(["node_id"])
        edges = bucketed_join(
            bucketed_join(edges, node_ids, on="src", right_on="node_id", how="semi"),
            node_ids,
            on="dst",
            right_on="node_id",
            how="semi",
        ).materialize()
    return nodes, edges


def kg_head_entities(sf_dir: str):
    """A4-analog skew probe as a driver query: top-10 entities by total
    mention count (the salting-decision statistic).

    Output: (name, n_mentions), deterministic order baked into values by
    limiting to 10 with (count desc, name asc) tie-break."""
    from ..pipelines.docs_kg import kg_entity_nodes

    ds = kg_entity_nodes(sf_dir).select_columns(["name", "n_mentions"])
    return ds.sort(["n_mentions", "name"], descending=[True, False]).limit(10)


def triangles_ds(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    broadcast_threshold: int = BROADCAST_THRESHOLD,
) -> ray.data.Dataset:
    """Per-node triangle counts + local clustering coefficient over the
    undirected graph.  Output: (node, degree, n_triangles,
    clustering_permille) — clustering = 2*tri/(deg*(deg-1)) as integer
    permille (floor), exact vs a SQL oracle.

    Size-gated like ``connected_components_ds``: one drain of the
    per-block canonical (min, max) pairs, self-loops dropped; under
    ``broadcast_threshold`` rows a driver kernel (pairs deduplicated,
    adjacency sets + lowest-vertex neighbor intersection) finishes with
    no exchange (no Ray Data execution over a materialized edge set under
    ``joins.BROADCAST_BYTES``, one over a lazy one).  Past the cap the
    same per-block pairs, as out-edges of their low vertex, feed three
    supersteps (``_superstep``, node-iterator with id-ordering):

    1. each vertex ``a`` dedups its out-edges, sends a degree message to
       both ends of each, and for each wedge b < c of its out-edges sends
       ``(to=c, via=a)`` to ``b`` — each triangle {a<b<c} is opened
       exactly once, from its lowest vertex.  Wedge volume is
       sum-of-deg(v)^2 over LOW vertices; at web scale orient by (degree,
       id) instead of raw id to bound the hot-vertex term (disclosed —
       id-ordering keeps the oracle a plain 3-way self-join).
    2. each ``b`` closes its wedges by a semi-join on (b, c) against its
       own out-edges, keeps its summed degree as state and credits the
       three corners of every closed wedge.
    3. each node sums its credits (0 without any) into its triangle count.
    """

    def canon_distinct(t: pa.Table) -> pa.Table:
        a = pc.cast(t[src_col], pa.string()).combine_chunks()
        b = pc.cast(t[dst_col], pa.string()).combine_chunks()
        lo, hi = pc.min_element_wise(a, b), pc.max_element_wise(a, b)
        keep = pc.not_equal(lo, hi)
        pairs = pa.table({"a": lo.filter(keep), "b": hi.filter(keep)})
        return pairs.group_by(["a", "b"]).aggregate([])

    drained = drain(
        edges,
        canon_distinct,
        max_rows=broadcast_threshold,
        schema=pa.schema([("a", pa.string()), ("b", pa.string())]),
    )
    if drained is not None:
        adj: dict[str, set[str]] = {}
        for a_, b_ in zip(drained["a"].to_pylist(), drained["b"].to_pylist()):
            adj.setdefault(a_, set()).add(b_)
            adj.setdefault(b_, set()).add(a_)
        tri: dict[str, int] = {n: 0 for n in adj}
        for a_, nbrs in adj.items():
            for b_ in nbrs:
                if b_ <= a_:
                    continue
                for c_ in adj[b_] & nbrs:
                    if c_ > b_:
                        for v in (a_, b_, c_):
                            tri[v] += 1
        items = sorted(adj)
        degs = [len(adj[n]) for n in items]
        tris = [tri[n] for n in items]
        perm = [
            (2000 * t_) // (d * (d - 1)) if d >= 2 else 0
            for d, t_ in zip(degs, tris)
        ]
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(items, type=pa.string()),
                    "degree": pa.array(degs, type=pa.int64()),
                    "n_triangles": pa.array(tris, type=pa.int64()),
                    "clustering_permille": pa.array(perm, type=pa.int64()),
                }
            )
        )

    edges = _nonempty_blocks(edges)
    schema = _rows_schema(pa.string()).append(pa.field("via", pa.string()))
    buckets = auto_num_buckets(edges)

    def wedges(df: pl.DataFrame) -> pl.DataFrame:
        e = _of(df, _EDGE).select("node", "to").unique()
        ends = pl.concat([e["node"], e["to"]]).alias("node")
        w = e.join(e.rename({"to": "c"}), on="node").filter(pl.col("to") < pl.col("c"))
        return _rows(
            (_EDGE, e),
            (_MSG, ends.value_counts(name="v")),
            (_WEDGE, w.select(node="to", to="c", via="node")),
        )

    def close(df: pl.DataFrame) -> pl.DataFrame:
        e = _of(df, _EDGE).select("node", "to")
        w = _of(df, _WEDGE).join(e, on=["node", "to"], how="semi")
        corners = pl.concat([w["via"], w["node"], w["to"]]).alias("node")
        return _rows(
            (_STATE, _of(df, _MSG).group_by("node").agg(pl.col("v").sum())),
            (_MSG, corners.value_counts(name="w")),
        )

    def count(df: pl.DataFrame) -> pl.DataFrame:
        got = _of(df, _MSG).group_by("node").agg(pl.col("w").sum())
        s = _of(df, _STATE).select("node", "v").join(got, on="node", how="left")
        return _rows((_STATE, s.with_columns(pl.col("w").fill_null(0))))

    def finish(t: pa.Table) -> pa.Table:
        deg, tri = t["v"], t["w"]
        denom = pc.multiply(deg, pc.subtract(deg, pa.scalar(1, pa.int64())))
        safe = pc.max_element_wise(denom, pa.scalar(1, pa.int64()))
        # integer division: all terms non-negative, so truncation == floor
        permille = pc.if_else(
            pc.greater_equal(deg, pa.scalar(2, pa.int64())),
            pc.divide(pc.multiply(tri, pa.scalar(2000, pa.int64())), safe),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "node": t["node"],
                "degree": deg,
                "n_triangles": tri,
                "clustering_permille": permille,
            }
        )

    rows = edges.map_batches(canon_distinct, batch_format="pyarrow").map_batches(
        _round_map(lambda df: _rows((_EDGE, df.select(node="a", to="b"))), schema, buckets),
        batch_format="pyarrow",
    )
    for kernel in (wedges, close, count):
        rows = _superstep(rows, kernel, schema, buckets)
    return _states(rows, finish)


def kg_triangles(sf_dir: str) -> ray.data.Dataset:
    """Driver query: triangle census + clustering coefficients of the
    entity co-occurrence graph.  Output: (name, degree, n_triangles,
    clustering_permille)."""
    from ..pipelines.docs_kg import kg_triples

    triples = kg_triples(sf_dir).select_columns(["subj_name", "obj_name"])
    out = triangles_ds(triples, src_col="subj_name", dst_col="obj_name")
    return out.map_batches(
        lambda t: pa.table(
            {
                "name": t["node"],
                "degree": t["degree"],
                "n_triangles": t["n_triangles"],
                "clustering_permille": t["clustering_permille"],
            }
        ),
        batch_format="pyarrow",
    )


ORACLE_SQL: dict[str, str] = {
    "kg_reachability": """
WITH RECURSIVE
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
        generate_subscripts(string_split(text, ' '), 1) AS i FROM documents),
{VOCAB},
pairs AS (
  SELECT DISTINCT a.tok AS w1, b.tok AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  WHERE a.tok IN (SELECT name FROM vocab) AND b.tok IN (SELECT name FROM vocab)
),
reach(name, hops) AS (
  SELECT 'data', 0
  UNION
  SELECT p.w2, r.hops + 1
  FROM reach r JOIN pairs p ON p.w1 = r.name
  WHERE r.hops < {MAX_HOPS}
)
SELECT name, CAST(min(hops) AS BIGINT) AS hops FROM reach GROUP BY name
""",
    "kg_components": """
WITH RECURSIVE
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
        generate_subscripts(string_split(text, ' '), 1) AS i FROM documents),
{VOCAB},
pairs AS (
  SELECT DISTINCT a.tok AS w1, b.tok AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  WHERE a.tok IN (SELECT name FROM vocab) AND b.tok IN (SELECT name FROM vocab)
),
und AS (SELECT w1 AS a, w2 AS b FROM pairs UNION SELECT w2, w1 FROM pairs),
nodes AS (SELECT DISTINCT a AS n FROM und),
reach(n, m) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT u.b, r.m FROM reach r JOIN und u ON u.a = r.n
)
SELECT n AS name, min(m) AS component FROM reach GROUP BY n
""",
    "kg_pagerank": pagerank_oracle_sql(),
    "kg_pagerank_personalized": pagerank_personalized_oracle_sql(["data"]),
    "kg_triangles": """
WITH
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
        generate_subscripts(string_split(text, ' '), 1) AS i FROM documents),
{VOCAB},
pairs AS (
  SELECT DISTINCT a.tok AS w1, b.tok AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  WHERE a.tok IN (SELECT name FROM vocab) AND b.tok IN (SELECT name FROM vocab)
),
e AS (SELECT DISTINCT least(w1, w2) AS a, greatest(w1, w2) AS b
      FROM pairs WHERE w1 <> w2),
deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS degree
  FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
  GROUP BY node),
tri AS (
  SELECT e1.a AS a, e1.b AS b, e2.b AS c
  FROM e e1
  JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b),
tn AS (
  SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
  FROM (SELECT a AS node FROM tri UNION ALL SELECT b FROM tri
        UNION ALL SELECT c FROM tri)
  GROUP BY node)
SELECT deg.node AS name, deg.degree,
       CAST(coalesce(tn.n_triangles, 0) AS BIGINT) AS n_triangles,
       CAST(CASE WHEN deg.degree >= 2
         THEN (2000 * coalesce(tn.n_triangles, 0))
                // (deg.degree * (deg.degree - 1))
         ELSE 0 END AS BIGINT) AS clustering_permille
FROM deg LEFT JOIN tn ON deg.node = tn.node
""",
    "kg_head_entities": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
{VOCAB}
SELECT t.tok AS name, CAST(count(*) AS BIGINT) AS n_mentions
FROM tok t JOIN vocab v ON t.tok = v.name
GROUP BY t.tok
ORDER BY n_mentions DESC, name
LIMIT 10
""",
}


def _fill_vocab() -> None:
    from ..pipelines.docs_kg import SQL_VOCAB

    for k in list(ORACLE_SQL):
        ORACLE_SQL[k] = (
            ORACLE_SQL[k]
            .replace("{VOCAB}", SQL_VOCAB)
            .replace("{MAX_HOPS}", str(MAX_HOPS))
        )


_fill_vocab()
