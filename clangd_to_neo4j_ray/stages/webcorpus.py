"""Web-corpus curation over the pages contract: boilerplate-line removal,
URL canonicalization/dedup, and crawl snapshot diffing.

Operator families a Common-Crawl-scale training-data pipeline runs
before anything else touches the text:

* **Boilerplate-line detection + scrub** (CCNet-style): hash every line of
  every page, count per-source document frequency, and strip lines that
  appear in >= half of a source's documents (navigation chrome, footers,
  subscribe banners).  The reference analog is the sanitizer pass that
  strips structural noise from every record before parsing
  (``clangd_index_yaml_parser.py`` tab-sanitize, SURVEY M2) combined with
  its header-dup guard (first-writer-wins on content seen in many files,
  ``clangd_symbol_nodes_builder.py`` D4/M14) — here the "seen in many
  files" signal itself is computed distributively.

* **URL normalization + dedup**: canonicalize raw crawl URLs (lowercase
  scheme/host, strip ``www.``, default ports, fragments, trailing slashes
  and ``utm_*`` tracking params, sort surviving query params) and collapse
  crawl variants of the same page — the web analog of the reference's
  URI -> project-relative-path normalization used as THE join/identity key
  everywhere (``clangd_index_yaml_parser.py`` path_from_uri, SURVEY M3,
  and the rename/copy de-aliasing D6).

The driver testdata carries neither multi-line pages nor messy URLs, so
both families synthesize their inputs deterministically from ``documents``
via SQL expressions shared VERBATIM with the DuckDB oracles (FIXTURES.md
"thin adapter" rule): page text gains a per-source subscribe header, a
~30%-frequency promo line (below the 50% threshold — pins that the cutoff
discriminates) and a copyright footer; each doc gets one of three raw-URL
variants of page ``doc_id // 3`` (two collapse under normalization, the
third differs by scheme and must stay distinct).

Scale shape:

* line-frequency pass: embarrassingly-parallel per-batch line explode +
  per-batch partial (source, line) doc-counts, then ONE bucketed exchange
  summing partials.  Keys are (source, line) — at 10^12 documents you key
  on (source, md5(line)) to bound key bytes; the exchange row count is
  bounded by distinct lines, which boilerplate itself compresses.
* the boilerplate SET (df >= 50% of a source's docs) is mathematically
  small — a source with D docs and L lines/doc has at most 2L such lines —
  so it is collected with ``joins.collect`` under the shared
  ``joins.BROADCAST_BYTES`` cap (loud failure past it, no silent driver
  OOM) and broadcast via ``ray.put``.
* scrub pass: second scan of documents, one embedded DuckDB kernel per
  batch anti-joining the broadcast set — zero additional exchanges.
* URL normalization is a pure per-batch RE2/list-kernel map (zero
  exchanges); dedup adds ONE bucketed exchange on url_norm.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..functions.duck import sql_over
from .joins import collect

# -- deterministic fixture adapters (shared verbatim with the oracles) -------

_NL = "chr(10)"

# ~30% of each source's docs carry the promo line: (doc_id // 7) % 10 < 3
# is deliberately decorrelated from the source assignment so the 50%
# threshold has true negatives to discriminate against.
PAGE_TEXT_EXPR = f"""'Subscribe to the ' || source || ' newsletter' || {_NL}
  || text || {_NL}
  || CASE WHEN (doc_id // 7) % 10 < 3
       THEN 'Limited promo from ' || source || {_NL} ELSE '' END
  || 'Copyright 2026 ' || source"""

RAW_URL_EXPR = """CASE CAST(doc_id % 3 AS INT)
  WHEN 0 THEN 'https://WWW.Site' || ((doc_id // 3) % 7)
    || '.Example.COM:443/Path/' || (doc_id // 3)
    || '?b=2&utm_source=feed&a=1#frag'
  WHEN 1 THEN 'https://www.site' || ((doc_id // 3) % 7)
    || '.example.com/Path/' || (doc_id // 3) || '/?a=1&b=2'
  ELSE 'http://site' || ((doc_id // 3) % 7)
    || '.example.com:80/Path/' || (doc_id // 3) || '?a=1&b=2&utm_campaign=x'
END"""

# -- shared CTE fragments ----------------------------------------------------
# docs(doc_id, text, source) -> lines(doc_id, source, line, i)

LINES_CTES = f"""paged AS (
  SELECT doc_id, source, {PAGE_TEXT_EXPR} AS page_text FROM docs),
lines AS (
  SELECT doc_id, source,
         unnest(string_split(page_text, {_NL})) AS line,
         unnest(generate_series(1, len(string_split(page_text, {_NL})))) AS i
  FROM paged)"""

# raw(doc_id, url_raw) -> normed(doc_id, url_raw, url_norm)
URL_NORM_CTES = r"""parts AS (
  SELECT doc_id, url_raw,
    lower(regexp_extract(url_raw, '^([A-Za-z]+)://', 1)) AS scheme,
    lower(regexp_extract(url_raw, '^[A-Za-z]+://([^/?#]+)', 1)) AS hostport,
    regexp_extract(url_raw, '^[A-Za-z]+://[^/?#]+([^?#]*)', 1) AS path,
    regexp_extract(url_raw, '\?([^#]*)', 1) AS q
  FROM raw),
normed AS (
  SELECT doc_id, url_raw,
    scheme || '://'
      || regexp_replace(
           CASE WHEN hostport LIKE 'www.%' THEN substr(hostport, 5)
                ELSE hostport END,
           CASE WHEN scheme = 'http' THEN ':80$' ELSE ':443$' END, '')
      || regexp_replace(path, '/+$', '')
      || CASE WHEN q2 <> '' THEN '?' || q2 ELSE '' END AS url_norm
  FROM (SELECT *,
          array_to_string(list_sort(list_filter(string_split(q, '&'),
            p -> p NOT LIKE 'utm$_%' ESCAPE '$' AND p <> '')), '&') AS q2
        FROM parts))"""


def _read_docs(sf_dir: str, cols: list[str]) -> ray.data.Dataset:
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)


def _source_totals(sf_dir: str) -> pa.Table:
    """Tiny exact (source, n_source_docs) table: per-batch partial counts,
    one O(sources)-output exchange, materialized driver-side (O(sources))."""
    from .shuffle import grouped_agg

    ds = _read_docs(sf_dir, ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        return sql_over(
            "SELECT source, CAST(count(*) AS BIGINT) AS n_source_docs "
            "FROM t GROUP BY source",
            t=batch,
        )

    totals = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        {"n_source_docs": ("n_source_docs", "sum")},
    )
    return collect(totals, "boilerplate set source totals")


def _line_doc_freq(sf_dir: str) -> ray.data.Dataset:
    """(source, line, n_docs): per-batch explode + per-doc-distinct partial
    counts, one bucketed exchange summing them."""
    from .shuffle import grouped_agg

    ds = _read_docs(sf_dir, ["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        return sql_over(
            f"""WITH docs AS (SELECT * FROM b), {LINES_CTES}
            SELECT source, line,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM lines GROUP BY source, line""",
            b=batch,
        )

    return grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "line"],
        {"n_docs": ("n_docs", "sum")},
    )


def _boilerplate_table(sf_dir: str) -> pa.Table:
    """The boilerplate set: lines present in >= half of their source's docs,
    joined with the source totals.  Output is inherently small (<= 2 *
    lines-per-doc rows per source); collected under the shared cap
    anyway."""
    totals = _source_totals(sf_dir)
    df = _line_doc_freq(sf_dir)

    tot_ref = ray.put(totals)

    def flag(batch: pa.Table) -> pa.Table:
        tot = ray.get(tot_ref)
        return sql_over(
            """SELECT d.source, d.line, d.n_docs, t.n_source_docs
               FROM d JOIN t ON d.source = t.source
               WHERE 2 * d.n_docs >= t.n_source_docs""",
            d=batch,
            t=tot,
        )

    # past the cap: raise the df threshold or key the scrub join by
    # (source, md5(line))
    return collect(df, "boilerplate set", flag)


def boilerplate_lines(sf_dir: str) -> pa.Table:
    """Per-source boilerplate lines (doc frequency >= 50% of the source's
    documents).  Output: (source, line, n_docs, n_source_docs).

    Plan: one documents scan for line partials + one bucketed exchange,
    one tiny totals exchange, threshold filter streamed over the exchange
    output with the O(sources) totals broadcast."""
    return _boilerplate_table(sf_dir)


def boilerplate_scrub(sf_dir: str) -> ray.data.Dataset:
    """Strip boilerplate lines from every page; account exactly.

    Output: (doc_id, n_kept, n_dropped, clean_md5) where clean_md5 is the
    md5 of the kept lines re-joined with newline in original order (NULL if
    every line was boilerplate).

    Plan: boilerplate set as in :func:`boilerplate_lines` (two bounded
    exchanges), broadcast once via ``ray.put``, then ONE second documents
    scan with a per-batch anti-join kernel — no further exchanges."""
    bp = _boilerplate_table(sf_dir).select(["source", "line"])
    bp_ref = ray.put(bp)

    ds = _read_docs(sf_dir, ["doc_id", "text", "source"])

    def scrub(batch: pa.Table) -> pa.Table:
        bpt = ray.get(bp_ref)
        return sql_over(
            f"""WITH docs AS (SELECT * FROM b), {LINES_CTES},
            tagged AS (
              SELECT l.doc_id, l.line, l.i,
                     (bp.line IS NOT NULL) AS is_bp
              FROM lines l
              LEFT JOIN bp ON l.source = bp.source AND l.line = bp.line)
            SELECT doc_id,
                   CAST(count(*) FILTER (NOT is_bp) AS BIGINT) AS n_kept,
                   CAST(count(*) FILTER (is_bp) AS BIGINT) AS n_dropped,
                   md5(string_agg(line, {_NL} ORDER BY i)
                       FILTER (NOT is_bp)) AS clean_md5
            FROM tagged GROUP BY doc_id""",
            b=batch,
            bp=bpt,
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def url_normalize(sf_dir: str) -> ray.data.Dataset:
    """Canonicalize raw crawl URLs.  Output: (doc_id, url_raw, url_norm).
    Pure per-batch RE2 + list kernels — zero exchanges."""
    ds = _read_docs(sf_dir, ["doc_id"])

    def norm(batch: pa.Table) -> pa.Table:
        return sql_over(
            f"""WITH raw AS (
              SELECT doc_id, {RAW_URL_EXPR} AS url_raw FROM b),
            {URL_NORM_CTES}
            SELECT doc_id, url_raw, url_norm FROM normed""",
            b=batch,
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Collapse crawl variants by canonical URL.  Output:
    (url_norm, n_variants, first_doc) — first-writer-wins representative,
    the reference's D6 de-aliasing shape.  One bucketed exchange."""
    from .shuffle import grouped_agg

    normed = url_normalize(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        return sql_over(
            """SELECT url_norm, CAST(count(*) AS BIGINT) AS n_variants,
                      CAST(min(doc_id) AS BIGINT) AS first_doc
               FROM t GROUP BY url_norm""",
            t=batch,
        )

    return grouped_agg(
        normed.map_batches(partial, batch_format="pyarrow"),
        ["url_norm"],
        {"n_variants": ("n_variants", "sum"), "first_doc": ("first_doc", "min")},
    )


# -- crawl snapshot diff ------------------------------------------------------

# snapshot B, synthesized deterministically from snapshot A (= documents,
# a(doc_id, text, source)): (doc_id // 7) % 10 == 3 removed, == 7
# content-changed, and for == 0 a brand-new page (doc_id + 1000000) on a
# brand-new host appears.  The selector is (doc_id // 7) % 10 — NOT
# doc_id % 10, which aligns perfectly with the 20-source assignment and
# degenerates the delta classes (whole sources vanish instead of
# individual pages, so the link delta never sees a 'changed' edge).
# Shared verbatim with the oracles (crawl_delta AND the link-graph
# delta).
SNAPSHOT_B_CTES = """b_kept AS (
  SELECT doc_id,
         CASE WHEN (doc_id // 7) % 10 = 7 THEN text || ' updated'
              ELSE text END AS text,
         source
  -- per-page removals ((doc_id // 7) selector) plus one whole host going
  -- offline (src19): the former turns shared edges 'changed', the latter
  -- yields pure 'removed' edges
  FROM a WHERE (doc_id // 7) % 10 <> 3 AND source <> 'src19'),
b AS (
  SELECT doc_id, text, source FROM b_kept
  UNION ALL
  -- new pages arrive on a brand-new host (source || 'new') so the edge
  -- delta exercises its 'added' class, not just removed/changed
  SELECT doc_id + 1000000 AS doc_id, 'new page ' || doc_id AS text,
         source || 'new' AS source
  FROM a WHERE (doc_id // 7) % 10 = 0)"""


def crawl_delta(sf_dir: str) -> ray.data.Dataset:
    """Crawl-to-crawl snapshot diff: which pages were added, removed, or
    content-changed between snapshot A (the documents table) and snapshot
    B (deterministic synthetic successor).  Output: (doc_id, status) for
    status in {added, removed, changed} — unchanged pages are dropped
    (the dirty set, the reference's git-diff incremental source S9/D6/D7
    generalized to crawl snapshots).

    Plan: each snapshot's scan emits (doc_id, side flags, content md5)
    rows — the fingerprints ride the scans, full text never moves — then
    ONE bucketed exchange groups per doc_id (max-folding the one-sided
    fingerprints) and a vectorized status kernel filters the dirty set.
    No join operator needed: presence/absence and fingerprint equality
    fall out of one grouped aggregation."""
    import pyarrow.compute as pc

    from ..functions.duck import md5_hex_arrow
    from .shuffle import grouped_agg

    ds = _read_docs(sf_dir, ["doc_id", "text", "source"])

    def a_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_a": pa.array([1] * n, type=pa.int64()),
                "n_b": pa.array([0] * n, type=pa.int64()),
                "fp_a": md5_hex_arrow(batch["text"]),
                "fp_b": pa.array([""] * n, type=pa.string()),
            }
        )

    def b_rows(batch: pa.Table) -> pa.Table:
        out = sql_over(
            f"""WITH a AS (SELECT * FROM t), {SNAPSHOT_B_CTES}
            SELECT doc_id, md5(text) AS fp FROM b""",
            t=batch,
        )
        n = len(out)
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "n_a": pa.array([0] * n, type=pa.int64()),
                "n_b": pa.array([1] * n, type=pa.int64()),
                "fp_a": pa.array([""] * n, type=pa.string()),
                "fp_b": out["fp"],
            }
        )

    tagged = ds.map_batches(a_rows, batch_format="pyarrow").union(
        ds.map_batches(b_rows, batch_format="pyarrow")
    )
    folded = grouped_agg(
        tagged,
        ["doc_id"],
        {
            "n_a": ("n_a", "sum"),
            "n_b": ("n_b", "sum"),
            "fp_a": ("fp_a", "max"),
            "fp_b": ("fp_b", "max"),
        },
    )

    def status(t: pa.Table) -> pa.Table:
        absent_a = pc.equal(t["n_a"], pa.scalar(0, pa.int64()))
        absent_b = pc.equal(t["n_b"], pa.scalar(0, pa.int64()))
        changed = pc.and_(
            pc.and_(pc.invert(absent_a), pc.invert(absent_b)),
            pc.not_equal(t["fp_a"], t["fp_b"]),
        )
        st = pc.if_else(
            absent_a,
            pa.scalar("added"),
            pc.if_else(
                absent_b,
                pa.scalar("removed"),
                pc.if_else(changed, pa.scalar("changed"), pa.scalar("")),
            ),
        )
        keep = pc.not_equal(st, pa.scalar(""))
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(keep),
                "status": st.filter(keep),
            }
        )

    return folded.map_batches(status, batch_format="pyarrow")


# -- oracles ------------------------------------------------------------------

_ORACLE_LINES = f"""docs AS (SELECT doc_id, text, source FROM documents),
{LINES_CTES},
df AS (
  SELECT source, line, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
  FROM lines GROUP BY source, line),
tot AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_source_docs
  FROM documents GROUP BY source),
bp AS (
  SELECT df.source, df.line, df.n_docs, tot.n_source_docs
  FROM df JOIN tot ON df.source = tot.source
  WHERE 2 * df.n_docs >= tot.n_source_docs)"""

def host_age_profile(sf_dir: str) -> ray.data.Dataset:
    """Crawl-freshness profile per host: first/last crawl minute and page
    count — the recrawl scheduler's input (stale hosts first).

    Output: (host, first_minute, last_minute, n_pages) — minutes are
    epoch minute indexes of ``warc_ts``.

    Plan: zero joins — one (host) min/max/count aggregate over the pages
    adapter, whose per-block combine makes its exchange O(hosts) rows per
    block."""
    import pyarrow.compute as _pc

    from ..sources.pages import documents_as_pages
    from .shuffle import grouped_agg

    pages = documents_as_pages(sf_dir)

    def minutes(batch: pa.Table) -> pa.Table:
        host = _pc.replace_substring_regex(
            batch["url"], r"^https://([^/]+)/.*$", r"\1"
        )
        minute = _pc.divide(_pc.cast(batch["warc_ts"], pa.int64()), 60_000_000)
        return pa.table({"host": host, "minute": minute})

    return grouped_agg(
        pages.map_batches(minutes, batch_format="pyarrow"),
        ["host"],
        {
            "first_minute": ("minute", "min"),
            "last_minute": ("minute", "max"),
            "n_pages": ("minute", "size"),
        },
    )


ORACLE_SQL: dict[str, str] = {
    # pages adapter contract: host = source.example.com, warc_ts =
    # 2025-01-01Z + doc_id seconds
    "host_age_profile": """
SELECT source || '.example.com' AS host,
       CAST((1735689600 + min(doc_id)) // 60 AS BIGINT) AS first_minute,
       CAST((1735689600 + max(doc_id)) // 60 AS BIGINT) AS last_minute,
       CAST(count(*) AS BIGINT) AS n_pages
FROM documents GROUP BY source
""",
    "boilerplate_lines": f"""
WITH {_ORACLE_LINES}
SELECT * FROM bp
""",
    "boilerplate_scrub": f"""
WITH {_ORACLE_LINES},
tagged AS (
  SELECT l.doc_id, l.line, l.i, (bp.line IS NOT NULL) AS is_bp
  FROM lines l
  LEFT JOIN bp ON l.source = bp.source AND l.line = bp.line)
SELECT doc_id,
       CAST(count(*) FILTER (NOT is_bp) AS BIGINT) AS n_kept,
       CAST(count(*) FILTER (is_bp) AS BIGINT) AS n_dropped,
       md5(string_agg(line, {_NL} ORDER BY i) FILTER (NOT is_bp)) AS clean_md5
FROM tagged GROUP BY doc_id
""",
    "crawl_delta": f"""
WITH a AS (SELECT doc_id, text, source FROM documents),
{SNAPSHOT_B_CTES},
fa AS (SELECT doc_id, md5(text) AS fp FROM a),
fb AS (SELECT doc_id, md5(text) AS fp FROM b)
SELECT coalesce(fa.doc_id, fb.doc_id) AS doc_id,
       CASE WHEN fa.doc_id IS NULL THEN 'added'
            WHEN fb.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM fa FULL OUTER JOIN fb ON fa.doc_id = fb.doc_id
WHERE fa.doc_id IS NULL OR fb.doc_id IS NULL OR fa.fp <> fb.fp
""",
    "url_normalize": f"""
WITH raw AS (SELECT doc_id, {RAW_URL_EXPR} AS url_raw FROM documents),
{URL_NORM_CTES}
SELECT doc_id, url_raw, url_norm FROM normed
""",
    "url_dedup": f"""
WITH raw AS (SELECT doc_id, {RAW_URL_EXPR} AS url_raw FROM documents),
{URL_NORM_CTES}
SELECT url_norm, CAST(count(*) AS BIGINT) AS n_variants,
       CAST(min(doc_id) AS BIGINT) AS first_doc
FROM normed GROUP BY url_norm
""",
}
