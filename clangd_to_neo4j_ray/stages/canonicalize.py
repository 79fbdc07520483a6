"""Stage C: canonicalization — the one wide exchange of every build.

Triple dedup on (subj, pred, obj) with a deterministic min-url evidence
witness: the streaming-safe, order-independent replacement for Cypher
``MERGE`` idempotency (D5, ``clangd_call_graph_builder.py:39-44``) and the
reference's last-wins dict dedup (D1, ``clangd_index_yaml_parser.py:257-258``;
SURVEY §7.5 order-dependence note).

The same exchange carries every other distinct the graph needs, so a build
pays exactly one all-to-all exchange (``graph_exchange``).  A per-batch map
over the link scan's tagged rows (``linking.TAG_SCHEMA``) builds one row
type of partials (``PARTIAL_SCHEMA``) with one key column:

- triple partials, dead letters dropped, keyed by (subj, pred, obj);
- PROJECT / DOMAIN / FOLDER container rows, keyed by node id;
- distinct (entity_id, url) mention pairs, keyed by entity id;
- page rows, keyed by url.

One ``shuffle.exchange`` on that key feeds one reducer, which emits per
bucket range the final graph rows (``materialize.GRAPH_SCHEMA``) of every
table: triples with their relation edges, container nodes and their
CONTAINS edges, PAGE nodes and their CONTAINS edges, one ENTITY node per
entity and the MENTIONS edges.  The rows stream straight into the graph sink.

Skew handling (north_rule "salted groupby"): aggregation is **two-phase** —
the per-batch partial combine (phase 1; the batch is an implicit salt, so
a head key like a popular entity contributes at most one row per block to
the shuffle) followed by the global bucketed exchange (phase 2).  The
A4-style head-key probe is ``graph_algo.kg_head_entities``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.textops import prefixed
from .hierarchy import HIERARCHY_SCHEMA, _hierarchy_partial, container_rows, page_rows
from .linking import DEAD_LETTER, TAG_SCHEMA
from .materialize import TRIPLE_SCHEMA, graph_rows, table_rows
from .shuffle import _SEP, auto_num_buckets, exchange, exchange_partitions

# Row type of the exchange input: the exchange key, the partial's kind,
# then the columns of each kind (a row leaves the other kinds' null)
PARTIAL_SCHEMA = pa.schema(
    [("key", pa.string()), ("kind", pa.string())]
    + [(c, pa.string()) for c in ("subj", "pred", "obj", "evidence_url")]
    + [("n", pa.int64())]
    + list(HIERARCHY_SCHEMA)
    + [("entity_id", pa.string()), ("url", pa.string())]
)


def _partial_dedup(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: within-batch dedup of (subj, pred, obj)."""
    out = batch.group_by(["subj", "pred", "obj"]).aggregate(
        [("evidence_url", "min"), ([], "count_all")]
    )
    return out.rename_columns(["subj", "pred", "obj", "evidence_url", "n"])


def _keyed(tbl: pa.Table, kind: str, key) -> pa.Table:
    n = tbl.num_rows
    return tbl.append_column("kind", pa.repeat(pa.scalar(kind), n)).append_column("key", key)


def _graph_partials(batch: pa.Table) -> pa.Table:
    """Per batch of tagged rows: the four kinds of partial row."""
    kind = batch["kind"]
    live = pc.and_(pc.equal(kind, "triple"), pc.not_equal(batch["pred"], DEAD_LETTER))
    triples = _partial_dedup(
        batch.select(["subj", "pred", "obj", "evidence_url"]).filter(live)
    )
    pairs = _distinct(batch, "mention", ["entity_id", "url"])
    pages = _distinct(batch, "page", ["url"])
    containers, parents = _hierarchy_partial(pages["url"].to_pylist())
    parts = [
        _keyed(
            triples,
            "triple",
            pc.binary_join_element_wise(triples["subj"], triples["pred"], triples["obj"], _SEP),
        ),
        _keyed(containers, "container", containers["node_id"]),
        _keyed(pairs, "mention", pairs["entity_id"]),
        _keyed(pages.append_column("parent", parents), "page", pages["url"]),
    ]
    return pa.concat_tables(parts, promote_options="default").select(PARTIAL_SCHEMA.names)


def _distinct(tbl: pa.Table, kind: str, cols: list[str]) -> pa.Table:
    """The distinct ``cols`` rows of one kind."""
    rows = tbl.select(cols).filter(pc.equal(tbl["kind"], kind))
    return rows.group_by(cols).aggregate([])


def _graph_reducer(names_ref):
    """The exchange's reducer: a bucket range's partials -> its graph rows.
    ENTITY nodes are named from ``names_ref`` (entity_id -> name)."""

    def per_bucket(batch: pa.Table) -> pa.Table:
        triples = (
            batch.select(["subj", "pred", "obj", "evidence_url", "n"])
            .filter(pc.equal(batch["kind"], "triple"))
            .group_by(["subj", "pred", "obj"])
            .aggregate([("evidence_url", "min"), ("n", "sum")])
            .rename_columns(TRIPLE_SCHEMA.names)
        )
        # parent, label and name are functions of the node id
        containers = _distinct(batch, "container", HIERARCHY_SCHEMA.names)
        pairs = _distinct(batch, "mention", ["entity_id", "url"])
        entity_ids = pc.unique(pairs["entity_id"])
        names = ray.get(names_ref)
        rows = [
            graph_rows("triples", **{c: triples[c] for c in TRIPLE_SCHEMA.names}),
            graph_rows(
                "edges",
                src=prefixed(triples["subj"], "entity:"),
                type=triples["pred"],
                dst=prefixed(triples["obj"], "entity:"),
            ),
            *container_rows(containers),
            *page_rows(_distinct(batch, "page", ["url", "parent"])),
            graph_rows(
                "nodes",
                node_id=prefixed(entity_ids, "entity:"),
                label="ENTITY",
                name=pa.array([names.get(i, i) for i in entity_ids.to_pylist()], pa.string()),
            ),
            graph_rows(
                "edges",
                src=prefixed(pairs["url"], "page:"),
                type="MENTIONS",
                dst=prefixed(pairs["entity_id"], "entity:"),
            ),
        ]
        return pa.concat_tables(rows)

    return per_bucket


def graph_exchange(
    tagged: ray.data.Dataset, entity_names: dict[str, str]
) -> tuple[ray.data.Dataset, dict[str, int]]:
    """Tagged link-scan rows (``TAG_SCHEMA``) -> (graph rows of every output
    table, the exchange's layout ``{"buckets": B, "partitions": P}``): the
    per-batch partials, ONE ``exchange`` on the partials' key, and the
    reducer.  Lazy: nothing runs until the rows are consumed.

    ``entity_names`` (entity_id -> canonical name) is broadcast once.
    Triples are unique on (subj, pred, obj) with evidence = the
    lexicographic min url (deterministic witness) and ``n_occurrences``
    the number of candidate rows; dead-letter rows are dropped here
    (``dead_letter_stats`` counts them)."""
    partials = tagged.map_batches(_graph_partials, batch_format="pyarrow")
    num_buckets = auto_num_buckets(partials)
    layout = {
        "buckets": num_buckets,
        "partitions": exchange_partitions(partials, num_buckets),
    }
    reducer = _graph_reducer(ray.put(entity_names))
    return exchange(partials, ["key"], reducer, num_buckets), layout


def tagged_rows(ds: ray.data.Dataset, kind: str) -> ray.data.Dataset:
    """Rows of one link-scan kind in ``TAG_SCHEMA``: ``ds`` holds the
    kind's columns (extra columns are dropped, missing ones null)."""

    def tag(t: pa.Table) -> pa.Table:
        n = t.num_rows

        def column(f: pa.Field):
            if f.name == "kind":
                return pa.repeat(pa.scalar(kind), n)
            return t[f.name].cast(f.type) if f.name in t.column_names else pa.nulls(n, f.type)

        return pa.Table.from_arrays([column(f) for f in TAG_SCHEMA], schema=TAG_SCHEMA)

    return ds.map_batches(tag, batch_format="pyarrow")


def canonicalize_triples(candidates: ray.data.Dataset) -> ray.data.Dataset:
    """Candidate triples (subj, pred, obj, evidence_url) -> canonical
    deduped triples (``TRIPLE_SCHEMA``): the triples table of
    ``graph_exchange`` run over them alone."""
    graph, _ = graph_exchange(tagged_rows(candidates, "triple"), {})
    return table_rows(graph, "triples")


def dead_letter_stats(candidates: ray.data.Dataset) -> pa.Table:
    """Dead-letter accounting (SURVEY §7.5 drop-vs-error): how many candidate
    rows were unresolvable, by predicate."""
    dl = candidates.map_batches(
        lambda t: t.filter(pa.compute.equal(t["pred"], DEAD_LETTER)),
        batch_format="pyarrow",
    )
    n = dl.count()
    return pa.table({"pred": pa.array([DEAD_LETTER]), "n": pa.array([n], type=pa.int64())})
