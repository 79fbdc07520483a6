"""Host-level web link graph from the ``html`` binary column.

The BASELINE.json input_hint contract carries pages as
``(url, warc_ts, html: binary, text, lang)``; this stage is the
web-native analog of the reference's ``#include``-graph extraction
(``compilation_parser.py:87-96`` — walk each TU's includes to (source,
included) pairs — then ``include_relation_provider.py:33-67`` —
relativize each path against the project root, drop external targets,
ingest de-duplicated edges): scan each page's raw HTML for
anchor hrefs, resolve site-relative links against the page's own host,
and aggregate the classic Common-Crawl-style host-to-host link graph.

No real HTML exists in the driver testdata, so pages are synthesized
deterministically from the ``documents`` table (FIXTURES.md "thin
adapter" rule): the html construction is one SQL expression
(``_HTML_EXPR``) shared verbatim by the per-batch synthesis kernel and
the DuckDB oracle, so both sides parse the *same bytes*.  Link count and
targets vary per doc (``doc_id % 3`` absolute outlinks to a 16-host
``.example.org`` ring, plus one site-relative link that must resolve to
the page's own host).

Scale shape: synthesis and extraction are embarrassingly parallel
map_batches stages (the extraction regex runs as one embedded DuckDB
RE2 kernel per batch — the repo's established vectorization idiom,
``functions/duck.py``); per-batch partial (src_host, dst_host) counts
ship the batch's DISTINCT host pairs, then ONE bucketed exchange sums
them.  Host-pair cardinality is O(hosts^2) worst-case but sub-linear in
pages in practice — the same compression argument as the reference's
include-pair distinct (``stages/shuffle.py`` D2).  Degree rollup adds
one more O(edges)-input exchange.

Out-of-contract hrefs (mailto:, javascript:, fragments, non-root
relative paths) are dropped by design; absolute http(s), scheme-relative
(``//host/...``) and site-root-relative (``/...``) links resolve.

The family built on this edge set (all oracle-exact): degree rollups,
unweighted and link-multiplicity-weighted integer PageRank, HITS
hubs/authorities, co-citation relatedness pairs, anchor-text profiles,
anchor->entity-dictionary evidence edges, per-host reputation profiles
(content stats folded with degrees), crawl-frontier generation (targets
anti-joined against the corpus), crawl-to-crawl link deltas, and a
per-partition checkpointed build (``pipelines/weblink.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.duck import sql_over
from .graph_algo import MAX_HOPS

# -- deterministic pages adapter (shared verbatim with the oracle) ----------

_PAGE_HOST_EXPR = "source || '.example.com'"

_HTML_EXPR = """'<html><head><title>doc ' || CAST(doc_id AS VARCHAR)
  || '</title></head><body><p>' || text || '</p>'
  || CASE WHEN doc_id % 3 >= 1 THEN
       '<a href="https://s' || CAST((doc_id + 7) % 16 AS VARCHAR)
       || '.example.org/p/' || CAST(doc_id * 31 + 1 AS VARCHAR) || '">'
       || split_part(text, ' ', 1) || '</a>'
     ELSE '' END
  || CASE WHEN doc_id % 3 >= 2 THEN
       '<a href="https://s' || CAST((doc_id + 14) % 16 AS VARCHAR)
       || '.example.org/p/' || CAST(doc_id * 31 + 2 AS VARCHAR) || '">r2</a>'
     ELSE '' END
  || '<a href="/local/' || CAST(doc_id AS VARCHAR) || '">self</a>'
  || '<a href="/doc/' || CAST(doc_id + 20 AS VARCHAR) || '">next</a>'
  || '</body></html>'"""

# -- extraction (shared CTE: per-batch kernel AND oracle) --------------------
# pages_s(page_host, html_str) -> resolved(src_host, dst_host per href)

_RESOLVE_CASE = """CASE WHEN href LIKE '//%'
                THEN regexp_extract(href, '^//([^/]+)', 1)
              WHEN href LIKE '/%' THEN page_host
              WHEN regexp_matches(href, '^https?://')
                THEN regexp_extract(href, '^https?://([^/]+)', 1)
              ELSE NULL END"""

_EXTRACT_CTES = f"""links AS (
  SELECT page_host,
         unnest(regexp_extract_all(html_str, 'href="([^"]*)"', 1)) AS href
  FROM pages_s),
resolved AS (
  SELECT page_host AS src_host,
         {_RESOLVE_CASE} AS dst_host
  FROM links)"""

# anchor-text profile: zip the href and anchor capture groups of each
# <a ...>text</a> pair (parallel unnests align element-wise)
_ANCHOR_RE = '<a href="([^"]*)">([^<]*)</a>'

_ANCHOR_CTES = f"""pairs AS (
  SELECT page_host,
         unnest(regexp_extract_all(html_str, '{_ANCHOR_RE}', 1)) AS href,
         unnest(regexp_extract_all(html_str, '{_ANCHOR_RE}', 2)) AS anchor
  FROM pages_s),
resolved_a AS (
  SELECT {_RESOLVE_CASE} AS dst_host, anchor
  FROM pairs)"""

_ANCHOR_SELECT = """SELECT dst_host, anchor,
       CAST(count(*) AS BIGINT) AS n_links
FROM resolved_a
WHERE dst_host IS NOT NULL AND dst_host <> ''
GROUP BY dst_host, anchor"""

_EDGE_SELECT = """SELECT src_host, dst_host,
       CAST(count(*) AS BIGINT) AS n_links
FROM resolved
WHERE dst_host IS NOT NULL AND dst_host <> ''
GROUP BY src_host, dst_host"""


def synthesize_pages(sf_dir: str) -> ray.data.Dataset:
    """documents -> full input_hint pages schema with real ``html: binary``
    (unlike ``sources.pages.documents_as_pages``, which omits html)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )

    def synth(batch: pa.Table) -> pa.Table:
        out = sql_over(
            f"""SELECT 'https://' || {_PAGE_HOST_EXPR} || '/doc/'
                  || CAST(doc_id AS VARCHAR) AS url,
                CAST(1735689600000000 + doc_id * 1000000 AS BIGINT) AS ts_us,
                {_HTML_EXPR} AS html_str, text, lang
                FROM t""",
            t=batch,
        )
        return pa.table(
            {
                "url": out["url"],
                "warc_ts": pc.cast(
                    out["ts_us"], pa.timestamp("us", tz="UTC")
                ),
                "html": pc.cast(out["html_str"], pa.binary()),
                "text": out["text"],
                "lang": out["lang"],
            }
        )

    return ds.map_batches(synth, batch_format="pyarrow")


def extract_link_partials(page_host: pa.Array, html: pa.Array) -> pa.Table:
    """Parse anchor hrefs out of raw html bytes and resolve them to
    (src_host, dst_host, n_links) partial counts — one RE2 kernel per
    batch.  ``html`` is the binary column; decode validates UTF-8."""
    pages_s = pa.table(
        {"page_host": page_host, "html_str": pc.cast(html, pa.string())}
    )
    return sql_over(
        f"WITH {_EXTRACT_CTES}\n{_EDGE_SELECT}", pages_s=pages_s
    )


def doc_link_partials(batch: pa.Table) -> pa.Table:
    """One documents batch (doc_id, text, source) -> partial
    (src_host, dst_host, n_links) counts: synthesize the page bytes and
    extract in one fused kernel.  Shared by the streaming link-graph plan
    and the checkpointed per-partition build (``pipelines/weblink.py``)."""
    synth = sql_over(
        f"SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str FROM t",
        t=batch,
    )
    return extract_link_partials(
        synth["page_host"], pc.cast(synth["html_str"], pa.binary())
    )


def sum_link_partials(partials: ray.data.Dataset) -> ray.data.Dataset:
    """ONE bucketed exchange summing (src_host, dst_host) partials."""
    from .shuffle import grouped_agg

    return grouped_agg(
        partials,
        ["src_host", "dst_host"],
        {"n_links": ("n_links", "sum")},
    )


def web_link_graph(sf_dir: str) -> ray.data.Dataset:
    """Host-to-host link graph: (src_host, dst_host, n_links).

    Plan: synthesize -> extract (fused map_batches chain, zero-copy
    Arrow) -> one bucketed exchange summing the per-batch partials."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return sum_link_partials(
        ds.map_batches(doc_link_partials, batch_format="pyarrow")
    )


def link_host_degrees(sf_dir: str) -> ray.data.Dataset:
    """Per-host degree stats off the edge list:
    (host, out_links, n_dst_hosts, in_links, n_src_hosts).

    Edges are distinct (src, dst) pairs after the link-graph exchange, so
    tagging each edge row once per endpoint and summing is exact; adds
    one O(edges)-input exchange."""
    from .shuffle import grouped_agg

    edges = web_link_graph(sf_dir)

    def tag(batch: pa.Table) -> pa.Table:
        n = len(batch)
        zeros = pa.array([0] * n, type=pa.int64())
        ones = pa.array([1] * n, type=pa.int64())
        out = pa.table(
            {
                "host": batch["src_host"],
                "out_links": batch["n_links"],
                "n_dst_hosts": ones,
                "in_links": zeros,
                "n_src_hosts": zeros,
            }
        )
        inn = pa.table(
            {
                "host": batch["dst_host"],
                "out_links": zeros,
                "n_dst_hosts": zeros,
                "in_links": batch["n_links"],
                "n_src_hosts": ones,
            }
        )
        return pa.concat_tables([out, inn])

    return grouped_agg(
        edges.map_batches(tag, batch_format="pyarrow"),
        ["host"],
        {
            "out_links": ("out_links", "sum"),
            "n_dst_hosts": ("n_dst_hosts", "sum"),
            "in_links": ("in_links", "sum"),
            "n_src_hosts": ("n_src_hosts", "sum"),
        },
    )


def link_anchor_texts(sf_dir: str) -> ray.data.Dataset:
    """Anchor-text profile per link target: (dst_host, anchor, n_links).

    The classic entity-alias signal of web KGs — what the rest of the web
    calls a page is evidence for entity linking, the analog of the
    reference's alias accumulation during symbol canonicalization
    (``clangd_symbol_nodes_builder.py`` D4 span-lookup alias merge).

    Plan: same fused synthesize+extract scan as :func:`web_link_graph`
    (one RE2 kernel per batch zipping the href/anchor capture groups),
    per-batch partial counts, ONE bucketed exchange."""
    from .shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        return sql_over(
            f"""WITH pages_s AS (
              SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str
              FROM t),
            {_ANCHOR_CTES}
            {_ANCHOR_SELECT}""",
            t=batch,
        )

    return grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["dst_host", "anchor"],
        {"n_links": ("n_links", "sum")},
    )


def link_cocitation(sf_dir: str) -> ray.data.Dataset:
    """Co-citation relatedness: host pairs linked by the same source host.
    Output: (host_a, host_b, n_common_src) with host_a < host_b — the
    classic "related sites" signal (Small 1973 co-citation over the web
    graph), the KG-side analog of the reference's co-occurrence pair
    derivation (two symbols sharing a file, SURVEY J1 family).

    Plan: distinct (src, dst) edges (one exchange), ONE bucketed exchange
    on src co-locating each source's target list, a per-bucket polars
    self-join emitting ordered target pairs (the triangle-census wedge
    kernel), then one count on the pair.  Per-src outdeg^2 wedge
    volume — degree-cap hot sources at web scale (disclosed)."""
    import polars as pl

    from .shuffle import distinct, exchange, grouped_agg

    edges = web_link_graph(sf_dir).select_columns(["src_host", "dst_host"])
    e = distinct(edges, ["src_host", "dst_host"]).materialize()

    def pair_bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        w = (
            df.join(
                df.rename({"dst_host": "host_b"}), on="src_host"
            )
            .filter(pl.col("dst_host") < pl.col("host_b"))
            .select(host_a="dst_host", host_b="host_b")
        )
        return w.to_arrow()

    pairs = exchange(e, ["src_host"], pair_bucket)
    return grouped_agg(
        pairs, ["host_a", "host_b"], {"n_common_src": ("host_b", "size")}
    )


def host_profiles(sf_dir: str) -> ray.data.Dataset:
    """Host reputation table: page-content stats fused with link-graph
    degrees per host — the per-source summary a web KG keeps next to its
    node table (the A5 file-summary grouped reduce, keyed by host, plus
    the J9 edge-endpoint lookup).  Output: (host, n_pages, n_tokens,
    in_links, out_links); pure link targets (the ``.example.org`` ring)
    appear with zero pages, pure content hosts with zero links.

    Plan: the content side emits per-batch partial (host, n_pages,
    n_tokens) rows off ONE documents scan; the degree side reuses the
    link-graph exchange output.  Both sides are tagged into a common
    schema and FOLDED IN ONE grouped-sum exchange — no join operator
    (the crawl_delta presence-fold shape)."""
    from .shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def content_partials(batch: pa.Table) -> pa.Table:
        out = sql_over(
            f"""SELECT {_PAGE_HOST_EXPR} AS host,
                  CAST(count(*) AS BIGINT) AS n_pages,
                  CAST(sum(len(string_split(text, ' '))) AS BIGINT)
                    AS n_tokens
                FROM t GROUP BY host""",
            t=batch,
        )
        n = len(out)
        zeros = pa.array([0] * n, type=pa.int64())
        return pa.table(
            {
                "host": out["host"],
                "n_pages": out["n_pages"],
                "n_tokens": out["n_tokens"],
                "in_links": zeros,
                "out_links": zeros,
            }
        )

    def edge_rows(batch: pa.Table) -> pa.Table:
        # tag each edge once per endpoint straight into the profile schema
        # — the degree rollup folds inside the profile exchange instead of
        # paying its own (one fewer sequential exchange, measured ~1 s)
        n = len(batch)
        zeros = pa.array([0] * n, type=pa.int64())
        out = pa.table(
            {
                "host": batch["src_host"],
                "n_pages": zeros,
                "n_tokens": zeros,
                "in_links": zeros,
                "out_links": batch["n_links"],
            }
        )
        inn = pa.table(
            {
                "host": batch["dst_host"],
                "n_pages": zeros,
                "n_tokens": zeros,
                "in_links": batch["n_links"],
                "out_links": zeros,
            }
        )
        return pa.concat_tables([out, inn])

    tagged = ds.map_batches(content_partials, batch_format="pyarrow").union(
        web_link_graph(sf_dir).map_batches(edge_rows, batch_format="pyarrow")
    )
    return grouped_agg(
        tagged,
        ["host"],
        {
            "n_pages": ("n_pages", "sum"),
            "n_tokens": ("n_tokens", "sum"),
            "in_links": ("in_links", "sum"),
            "out_links": ("out_links", "sum"),
        },
    )


def link_graph_delta(sf_dir: str) -> ray.data.Dataset:
    """Crawl-to-crawl LINK delta: host edges that appeared, disappeared,
    or changed weight between snapshot A (documents) and snapshot B
    (the deterministic synthetic successor shared with ``crawl_delta``) —
    the incremental KG-maintenance statement of §3.2 applied to the edge
    table (the reference recomputes only dirty includes,
    ``compilation_manager.py`` D7).

    Output: (src_host, dst_host, n_links_a, n_links_b, status) for
    status in {added, removed, changed}; unchanged edges are dropped.

    Plan: each snapshot's fused synthesize+extract scan emits
    side-tagged edge partials; ONE grouped exchange folds both sides per
    edge (the crawl_delta presence-fold — no join operator), then a
    vectorized status kernel filters the dirty set."""
    from ..stages.webcorpus import SNAPSHOT_B_CTES
    from .shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def tag(edges: pa.Table, side: str) -> pa.Table:
        n = len(edges)
        zeros = pa.array([0] * n, type=pa.int64())
        return pa.table(
            {
                "src_host": edges["src_host"],
                "dst_host": edges["dst_host"],
                "n_links_a": edges["n_links"] if side == "a" else zeros,
                "n_links_b": edges["n_links"] if side == "b" else zeros,
            }
        )

    def a_partials(batch: pa.Table) -> pa.Table:
        return tag(doc_link_partials(batch), "a")

    def b_partials(batch: pa.Table) -> pa.Table:
        snap = sql_over(
            f"""WITH a AS (SELECT * FROM t), {SNAPSHOT_B_CTES}
            SELECT doc_id, text, source FROM b""",
            t=batch,
        )
        return tag(doc_link_partials(snap), "b")

    tagged = ds.map_batches(a_partials, batch_format="pyarrow").union(
        ds.map_batches(b_partials, batch_format="pyarrow")
    )
    folded = grouped_agg(
        tagged,
        ["src_host", "dst_host"],
        {"n_links_a": ("n_links_a", "sum"), "n_links_b": ("n_links_b", "sum")},
    )

    def status(t: pa.Table) -> pa.Table:
        zero = pa.scalar(0, pa.int64())
        a = t["n_links_a"]
        b = t["n_links_b"]
        st = pc.if_else(
            pc.equal(a, zero),
            pa.scalar("added"),
            pc.if_else(
                pc.equal(b, zero),
                pa.scalar("removed"),
                pc.if_else(
                    pc.not_equal(a, b), pa.scalar("changed"), pa.scalar("")
                ),
            ),
        )
        keep = pc.not_equal(st, pa.scalar(""))
        return pa.table(
            {
                "src_host": t["src_host"].filter(keep),
                "dst_host": t["dst_host"].filter(keep),
                "n_links_a": a.filter(keep),
                "n_links_b": b.filter(keep),
                "status": st.filter(keep),
            }
        )

    return folded.map_batches(status, batch_format="pyarrow")


# full-URL resolution for frontier generation: absolute hrefs pass
# through, scheme-relative gain https, site-root-relative resolve against
# the page's own host (shared verbatim with the oracle)
_FRONTIER_CTES = """furls AS (
  SELECT CASE WHEN href LIKE '//%' THEN 'https:' || href
              WHEN href LIKE '/%'
                THEN 'https://' || page_host || href
              WHEN regexp_matches(href, '^https?://') THEN href
              ELSE NULL END AS url
  FROM links)"""

_FRONTIER_SELECT = """SELECT url, CAST(count(*) AS BIGINT) AS n_refs
FROM furls WHERE url IS NOT NULL GROUP BY url"""


def url_frontier(sf_dir: str) -> ray.data.Dataset:
    """Crawl-frontier generation: every link target URL that is NOT
    already a page in the corpus, with its reference count — the next
    fetch list a crawler derives from the current snapshot (the web-native
    analog of the reference's discovery-from-includes union, SURVEY M8:
    targets referenced by edges but absent from the node set).

    Plan: the fused synthesize+extract scan resolves each href to a full
    URL and pre-sums per batch; one bucketed exchange sums reference
    counts per URL; one bucketed ANTI join removes URLs the corpus
    already has (the corpus side streams through the exchange — never a
    driver set, so the plan holds when the crawl is the big side)."""
    from .joins import bucketed_join
    from .shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        return sql_over(
            f"""WITH pages_s AS (
              SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str
              FROM t),
            links AS (
              SELECT page_host,
                     unnest(regexp_extract_all(html_str, 'href="([^"]*)"', 1))
                       AS href
              FROM pages_s),
            {_FRONTIER_CTES}
            {_FRONTIER_SELECT}""",
            t=batch,
        )

    refs = grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["url"],
        {"n_refs": ("n_refs", "sum")},
    )

    def corpus_urls(batch: pa.Table) -> pa.Table:
        out = sql_over(
            f"""SELECT 'https://' || {_PAGE_HOST_EXPR} || '/doc/'
                  || CAST(doc_id AS VARCHAR) AS url FROM t""",
            t=batch,
        )
        return out

    have = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(corpus_urls, batch_format="pyarrow")

    return bucketed_join(refs, have, on="url", how="anti")


def link_host_pagerank(sf_dir: str) -> ray.data.Dataset:
    """Host authority ranking: integer-exact PageRank over the distinct
    directed host-to-host edge set (link weights intentionally ignored —
    the classic unweighted host-graph rank).  Output: (host, pr_scaled)
    with pr x 10^6.

    Exercises the dangling-node variant for real: the ``.example.org``
    target ring receives links but emits none.  Same fixed-point
    arithmetic (and unrolled-CTE oracle) as ``kg_pagerank`` with the
    co-occurrence graph swapped for the link graph."""
    from .graph_algo import pagerank_ds

    edges = web_link_graph(sf_dir).select_columns(["src_host", "dst_host"])
    pr = pagerank_ds(edges, src_col="src_host", dst_col="dst_host")
    return pr.map_batches(
        lambda t: pa.table({"host": t["node"], "pr_scaled": t["pr_scaled"]}),
        batch_format="pyarrow",
    )


def link_bowtie(sf_dir: str) -> ray.data.Dataset:
    """Bow-tie decomposition of the host link graph (Broder et al. 2000,
    the classic web-graph macro-structure): pick the most-linked host as
    the pivot, compute its forward and backward reachability, and
    classify every host as ``core`` (in both — the pivot's SCC plus
    bidirectionally-connected hosts), ``in`` (reaches the core), ``out``
    (reached from the core) or ``disc`` (neither).

    Output: (host, region, hops_from, hops_to) — BFS distances from/to
    the pivot, -1 when unreachable.

    Plan: the edge list is materialized ONCE (it feeds the degree scan
    and both BFS directions; at web scale it stays as object-store
    blocks, never on the driver).  Pivot selection is a bounded reduce:
    per-block top-1 by (degree desc, host asc), O(blocks) rows to the
    driver.  Each BFS is ``reachable_from_ds`` (one drain of the edge
    pairs and every hop on the driver under the threshold, per-hop
    drains while the visited set stays under it, one superstep per hop
    after that).  Classification is
    join-free: the host universe and both reach sets are tagged and
    unioned, one ``grouped_agg`` max-fold per host recovers membership
    flags and distances (each host has exactly one row per branch, so
    max over the -1 sentinel is exact)."""
    return bowtie_from_edges(web_link_graph(sf_dir))


def bowtie_from_edges(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str = "n_links",
) -> ray.data.Dataset:
    """Bow-tie classification over an arbitrary weighted edge Dataset —
    the engine-level operator behind ``link_bowtie`` (separated so tests
    can drive region coverage with hand-built graphs)."""
    from .graph_algo import reachable_from_ds
    from .joins import collect
    from .shuffle import grouped_agg

    edges = edges.materialize()

    def deg_tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": pa.concat_arrays(
                    [
                        batch[src_col].combine_chunks(),
                        batch[dst_col].combine_chunks(),
                    ]
                ),
                "deg": pa.concat_arrays(
                    [batch[weight_col].combine_chunks()] * 2
                ),
            }
        )

    deg = grouped_agg(
        edges.map_batches(deg_tag, batch_format="pyarrow"),
        ["host"],
        {"deg": ("deg", "sum")},
    )

    def top1(batch: pa.Table) -> pa.Table:
        return batch.sort_by([("deg", "descending"), ("host", "ascending")]).slice(0, 1)

    pivot = top1(collect(deg, "bow-tie pivot candidates", top1))["host"][0].as_py()

    fwd = reachable_from_ds(
        edges, {pivot}, src_col=src_col, dst_col=dst_col
    )
    bwd = reachable_from_ds(
        edges, {pivot}, src_col=dst_col, dst_col=src_col
    )

    def base_tag(batch: pa.Table) -> pa.Table:
        n = len(batch)
        neg = pa.array(np.full(n, -1, dtype=np.int64))
        zero = pa.array(np.zeros(n, dtype=np.int64))
        return pa.table(
            {
                "host": batch["host"],
                "f": zero,
                "b": zero,
                "hops_from": neg,
                "hops_to": neg,
            }
        )

    def reach_tag(flag_col: str, hop_col: str):
        def tag(batch: pa.Table) -> pa.Table:
            n = len(batch)
            neg = pa.array(np.full(n, -1, dtype=np.int64))
            one = pa.array(np.ones(n, dtype=np.int64))
            zero = pa.array(np.zeros(n, dtype=np.int64))
            cols = {
                "host": batch["node"],
                "f": one if flag_col == "f" else zero,
                "b": one if flag_col == "b" else zero,
                "hops_from": batch["hops"] if hop_col == "hops_from" else neg,
                "hops_to": batch["hops"] if hop_col == "hops_to" else neg,
            }
            return pa.table(cols)

        return tag

    tagged = (
        deg.select_columns(["host"])
        .map_batches(base_tag, batch_format="pyarrow")
        .union(fwd.map_batches(reach_tag("f", "hops_from"), batch_format="pyarrow"))
        .union(bwd.map_batches(reach_tag("b", "hops_to"), batch_format="pyarrow"))
    )
    folded = grouped_agg(
        tagged,
        ["host"],
        {
            "f": ("f", "max"),
            "b": ("b", "max"),
            "hops_from": ("hops_from", "max"),
            "hops_to": ("hops_to", "max"),
        },
    )

    def classify(batch: pa.Table) -> pa.Table:
        f = batch["f"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        region = np.where(
            (f == 1) & (b == 1),
            "core",
            np.where(b == 1, "in", np.where(f == 1, "out", "disc")),
        )
        return pa.table(
            {
                "host": batch["host"],
                "region": pa.array(region, type=pa.string()),
                "hops_from": batch["hops_from"],
                "hops_to": batch["hops_to"],
            }
        )

    return folded.map_batches(classify, batch_format="pyarrow")


def anchor_entity_links(sf_dir: str) -> ray.data.Dataset:
    """Entity-host evidence from anchor text: anchors whose text IS a
    vocabulary entity become (name, dst_host, n_links) edges — what the
    rest of the web calls a page, resolved against the entity dictionary
    (the web-native analog of the reference's alias-dictionary linking,
    SURVEY T1/J1; the first synthesized anchor carries the page's leading
    token, so vocabulary hits are real, not vacuous).

    Plan: rides the SAME fused synthesize+extract scan as
    :func:`link_anchor_texts` with a vectorized ``is_in`` vocabulary
    filter per batch (the broadcast dictionary is a module constant both
    sides share), then ONE bucketed exchange."""
    from ..pipelines.docs_kg import _VOCAB_ARRAY
    from .shuffle import grouped_agg

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        out = sql_over(
            f"""WITH pages_s AS (
              SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str
              FROM t),
            {_ANCHOR_CTES}
            {_ANCHOR_SELECT}""",
            t=batch,
        )
        keep = pc.is_in(
            out["anchor"].combine_chunks(), value_set=_VOCAB_ARRAY
        )
        kept = out.filter(keep)
        return pa.table(
            {
                "name": kept["anchor"],
                "dst_host": kept["dst_host"],
                "n_links": kept["n_links"],
            }
        )

    return grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["name", "dst_host"],
        {"n_links": ("n_links", "sum")},
    )


def link_host_hits(sf_dir: str) -> ray.data.Dataset:
    """Hub/authority decomposition of the host link graph (HITS): the
    ``.example.org`` target ring are pure authorities (no outlinks), the
    ``.example.com`` page hosts pure-ish hubs.  Output:
    (host, auth_scaled, hub_scaled), L1 fixed-point x 10^6 — integer-exact
    vs the unrolled-CTE oracle, same discipline as ``link_host_pagerank``."""
    from .graph_algo import hits_ds

    edges = web_link_graph(sf_dir).select_columns(["src_host", "dst_host"])
    out = hits_ds(edges, src_col="src_host", dst_col="dst_host")
    return out.map_batches(
        lambda t: pa.table(
            {
                "host": t["node"],
                "auth_scaled": t["auth_scaled"],
                "hub_scaled": t["hub_scaled"],
            }
        ),
        batch_format="pyarrow",
    )


def link_host_pagerank_weighted(sf_dir: str) -> ray.data.Dataset:
    """Weighted host PageRank: link MULTIPLICITY steers the mass split
    ((pr * n_links) // wsum per edge) — hosts that link somewhere many
    times push proportionally more authority there, unlike the unweighted
    ``link_host_pagerank``.  Output: (host, pr_scaled), integer-exact vs
    the unrolled weighted-CTE oracle."""
    from .graph_algo import pagerank_weighted_ds

    edges = web_link_graph(sf_dir)
    pr = pagerank_weighted_ds(
        edges, src_col="src_host", dst_col="dst_host", weight_col="n_links"
    )
    return pr.map_batches(
        lambda t: pa.table({"host": t["node"], "pr_scaled": t["pr_scaled"]}),
        batch_format="pyarrow",
    )


_ORACLE_PAGES = f"""pages_s AS (
  SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str
  FROM documents)"""

ORACLE_SQL = {
    "link_anchor_texts": f"""
WITH {_ORACLE_PAGES},
{_ANCHOR_CTES}
{_ANCHOR_SELECT}
""",
    "anchor_entity_links": """
WITH {PAGES},
{ANCHORS},
{VOCAB},
agg AS ({SELECT})
SELECT agg.anchor AS name, agg.dst_host, agg.n_links
FROM agg JOIN vocab v ON v.name = agg.anchor
""",
    "web_link_graph": f"""
WITH {_ORACLE_PAGES},
{_EXTRACT_CTES}
{_EDGE_SELECT}
""",
    "host_profiles": f"""
WITH {_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT}),
o AS (SELECT src_host AS host, CAST(sum(n_links) AS BIGINT) AS out_links
      FROM e GROUP BY src_host),
i AS (SELECT dst_host AS host, CAST(sum(n_links) AS BIGINT) AS in_links
      FROM e GROUP BY dst_host),
c AS (SELECT {_PAGE_HOST_EXPR} AS host,
             CAST(count(*) AS BIGINT) AS n_pages,
             CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS n_tokens
      FROM documents GROUP BY host),
hosts AS (
  SELECT host FROM c UNION SELECT host FROM o UNION SELECT host FROM i)
SELECT h.host,
       CAST(coalesce(c.n_pages, 0) AS BIGINT) AS n_pages,
       CAST(coalesce(c.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(i.in_links, 0) AS BIGINT) AS in_links,
       CAST(coalesce(o.out_links, 0) AS BIGINT) AS out_links
FROM hosts h
LEFT JOIN c ON c.host = h.host
LEFT JOIN o ON o.host = h.host
LEFT JOIN i ON i.host = h.host
""",
    "url_frontier": f"""
WITH {_ORACLE_PAGES},
links AS (
  SELECT page_host,
         unnest(regexp_extract_all(html_str, 'href="([^"]*)"', 1)) AS href
  FROM pages_s),
{_FRONTIER_CTES},
refs AS ({_FRONTIER_SELECT}),
have AS (
  SELECT 'https://' || {_PAGE_HOST_EXPR} || '/doc/'
    || CAST(doc_id AS VARCHAR) AS url
  FROM documents)
SELECT r.url, r.n_refs FROM refs r ANTI JOIN have h ON r.url = h.url
""",
    "link_bowtie": f"""
WITH RECURSIVE
{_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT}),
deg AS (
  SELECT host, CAST(sum(d) AS BIGINT) AS deg FROM (
    SELECT src_host AS host, n_links AS d FROM e
    UNION ALL SELECT dst_host, n_links FROM e
  ) GROUP BY host
),
pv AS (SELECT host FROM deg ORDER BY deg DESC, host LIMIT 1),
fwd(node, hops) AS (
  SELECT host, 0 FROM pv
  UNION
  SELECT e.dst_host, f.hops + 1
  FROM fwd f JOIN e ON e.src_host = f.node WHERE f.hops < {MAX_HOPS}
),
bwd(node, hops) AS (
  SELECT host, 0 FROM pv
  UNION
  SELECT e.src_host, b.hops + 1
  FROM bwd b JOIN e ON e.dst_host = b.node WHERE b.hops < {MAX_HOPS}
),
f2 AS (SELECT node, min(hops) AS hops FROM fwd GROUP BY node),
b2 AS (SELECT node, min(hops) AS hops FROM bwd GROUP BY node)
SELECT d.host,
       CASE WHEN f2.node IS NOT NULL AND b2.node IS NOT NULL THEN 'core'
            WHEN b2.node IS NOT NULL THEN 'in'
            WHEN f2.node IS NOT NULL THEN 'out'
            ELSE 'disc' END AS region,
       CAST(coalesce(f2.hops, -1) AS BIGINT) AS hops_from,
       CAST(coalesce(b2.hops, -1) AS BIGINT) AS hops_to
FROM deg d
LEFT JOIN f2 ON f2.node = d.host
LEFT JOIN b2 ON b2.node = d.host
""",
    "link_cocitation": f"""
WITH {_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT})
SELECT e1.dst_host AS host_a, e2.dst_host AS host_b,
       CAST(count(*) AS BIGINT) AS n_common_src
FROM e e1 JOIN e e2
  ON e1.src_host = e2.src_host AND e1.dst_host < e2.dst_host
GROUP BY host_a, host_b
""",
    "link_host_degrees": f"""
WITH {_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT}),
o AS (SELECT src_host AS host, CAST(sum(n_links) AS BIGINT) AS out_links,
             CAST(count(*) AS BIGINT) AS n_dst_hosts
      FROM e GROUP BY src_host),
i AS (SELECT dst_host AS host, CAST(sum(n_links) AS BIGINT) AS in_links,
             CAST(count(*) AS BIGINT) AS n_src_hosts
      FROM e GROUP BY dst_host)
SELECT coalesce(o.host, i.host) AS host,
       CAST(coalesce(o.out_links, 0) AS BIGINT) AS out_links,
       CAST(coalesce(o.n_dst_hosts, 0) AS BIGINT) AS n_dst_hosts,
       CAST(coalesce(i.in_links, 0) AS BIGINT) AS in_links,
       CAST(coalesce(i.n_src_hosts, 0) AS BIGINT) AS n_src_hosts
FROM o FULL OUTER JOIN i ON o.host = i.host
""",
}


def _install_delta_oracle() -> None:
    from .webcorpus import SNAPSHOT_B_CTES

    ORACLE_SQL["link_graph_delta"] = f"""
WITH
ea AS (WITH {_ORACLE_PAGES},
{_EXTRACT_CTES}
{_EDGE_SELECT}),
eb AS (WITH a AS (SELECT doc_id, text, source FROM documents),
{SNAPSHOT_B_CTES},
pages_s AS (
  SELECT {_PAGE_HOST_EXPR} AS page_host, {_HTML_EXPR} AS html_str FROM b),
{_EXTRACT_CTES}
{_EDGE_SELECT})
SELECT coalesce(ea.src_host, eb.src_host) AS src_host,
       coalesce(ea.dst_host, eb.dst_host) AS dst_host,
       CAST(coalesce(ea.n_links, 0) AS BIGINT) AS n_links_a,
       CAST(coalesce(eb.n_links, 0) AS BIGINT) AS n_links_b,
       CASE WHEN ea.src_host IS NULL THEN 'added'
            WHEN eb.src_host IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM ea FULL OUTER JOIN eb
  ON ea.src_host = eb.src_host AND ea.dst_host = eb.dst_host
WHERE ea.src_host IS NULL OR eb.src_host IS NULL
   OR ea.n_links <> eb.n_links
"""


def _install_rank_oracles() -> None:
    from .graph_algo import (
        hits_oracle_sql,
        pagerank_oracle_sql,
        pagerank_weighted_oracle_sql,
    )

    graph_ctes = f"""{_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT}),
pairs AS (SELECT src_host AS w1, dst_host AS w2 FROM e)"""
    ORACLE_SQL["link_host_pagerank"] = pagerank_oracle_sql(
        graph_ctes=graph_ctes, node_col="host"
    )
    ORACLE_SQL["link_host_hits"] = hits_oracle_sql(
        graph_ctes=graph_ctes, node_col="host"
    )
    graph_ctes_w = f"""{_ORACLE_PAGES},
{_EXTRACT_CTES},
e AS ({_EDGE_SELECT}),
pairs AS (SELECT src_host AS w1, dst_host AS w2, n_links AS w FROM e)"""
    ORACLE_SQL["link_host_pagerank_weighted"] = pagerank_weighted_oracle_sql(
        graph_ctes=graph_ctes_w, node_col="host"
    )
    from ..pipelines.docs_kg import SQL_VOCAB

    ORACLE_SQL["anchor_entity_links"] = (
        ORACLE_SQL["anchor_entity_links"]
        .replace("{PAGES}", _ORACLE_PAGES)
        .replace("{ANCHORS}", _ANCHOR_CTES)
        .replace("{VOCAB}", SQL_VOCAB)
        .replace("{SELECT}", _ANCHOR_SELECT)
    )


_install_rank_oracles()
_install_delta_oracle()
