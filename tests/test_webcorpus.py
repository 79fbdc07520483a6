"""Web-corpus curation (stages/webcorpus.py) + anchor texts (linkgraph).

Boilerplate-line detection/scrub is the CCNet-style per-source line-df
pass (reference analog: the M2 sanitizer + D4 header-dup guard); URL
normalization is the web analog of the reference's URI -> relative-path
identity key (M3/D6).  Oracle equality pins the full distributed plans;
the semantic tests pin the parts an oracle can't discriminate (threshold
behavior, exact scrub payloads, variant collapse).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from clangd_to_neo4j_ray.stages import linkgraph as lg
from clangd_to_neo4j_ray.stages import webcorpus as wc

from .util import assert_matches_oracle, duckdb_con, to_pandas

SF = "/root/testdata/sf0.001"


def test_boilerplate_lines_matches_oracle(ray_session):
    assert_matches_oracle(
        wc.boilerplate_lines(SF), wc.ORACLE_SQL["boilerplate_lines"], SF
    )


def test_boilerplate_scrub_matches_oracle(ray_session):
    assert_matches_oracle(
        wc.boilerplate_scrub(SF), wc.ORACLE_SQL["boilerplate_scrub"], SF
    )


def test_url_normalize_matches_oracle(ray_session):
    assert_matches_oracle(
        wc.url_normalize(SF), wc.ORACLE_SQL["url_normalize"], SF
    )


def test_url_dedup_matches_oracle(ray_session):
    assert_matches_oracle(wc.url_dedup(SF), wc.ORACLE_SQL["url_dedup"], SF)


def test_link_anchor_texts_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_anchor_texts(SF), lg.ORACLE_SQL["link_anchor_texts"], SF
    )


def test_boilerplate_threshold_discriminates(ray_session):
    """Header + footer (df=100%) are boilerplate; the ~30%-frequency promo
    line is NOT — pins that the 50% cutoff has true negatives."""
    bp = to_pandas(wc.boilerplate_lines(SF))
    lines = set(bp["line"])
    assert any(l.startswith("Subscribe to the ") for l in lines)
    assert any(l.startswith("Copyright 2026 ") for l in lines)
    assert not any(l.startswith("Limited promo") for l in lines)
    # per-source doc counts are exact
    con = duckdb_con(SF)
    totals = dict(
        con.sql("SELECT source, count(*) FROM documents GROUP BY source")
        .fetchall()
    )
    con.close()
    for _, r in bp.iterrows():
        assert r["n_source_docs"] == totals[r["source"]]
        assert 2 * r["n_docs"] >= r["n_source_docs"]


def test_boilerplate_scrub_exact_payload(ray_session):
    """For a doc without the promo line, the scrub keeps exactly the
    original document text: clean_md5 == md5(text)."""
    con = duckdb_con(SF)
    docs = dict(
        con.sql(
            "SELECT doc_id, text FROM documents WHERE (doc_id // 7) % 10 >= 3"
        ).fetchall()
    )
    promo = dict(
        con.sql(
            "SELECT doc_id, source FROM documents WHERE (doc_id // 7) % 10 < 3"
        ).fetchall()
    )
    con.close()
    got = to_pandas(wc.boilerplate_scrub(SF)).set_index("doc_id")
    for doc_id, text in docs.items():
        row = got.loc[doc_id]
        assert row["n_kept"] == 1 and row["n_dropped"] == 2
        assert row["clean_md5"] == hashlib.md5(text.encode()).hexdigest()
    for doc_id, src in promo.items():
        row = got.loc[doc_id]
        # promo survives (below threshold): text + promo line kept
        assert row["n_kept"] == 2 and row["n_dropped"] == 2


def test_url_variants_collapse(ray_session):
    """Variant 0 (caps/port/fragment/utm/param-order) and variant 1
    (www/trailing-slash) of the same page normalize identically; variant 2
    differs by scheme and must stay distinct."""
    normed = to_pandas(wc.url_normalize(SF)).set_index("doc_id")
    # page 0 = docs 0,1,2
    assert normed.loc[0, "url_norm"] == normed.loc[1, "url_norm"]
    assert normed.loc[2, "url_norm"] != normed.loc[0, "url_norm"]
    assert normed.loc[2, "url_norm"].startswith("http://")
    assert normed.loc[0, "url_norm"].startswith("https://")
    assert "utm" not in normed.loc[0, "url_norm"]
    assert "#" not in normed.loc[0, "url_norm"]
    assert "www." not in normed.loc[0, "url_norm"]
    # path case is preserved (only scheme/host lowercase)
    assert "/Path/" in normed.loc[0, "url_norm"]

    dedup = to_pandas(wc.url_dedup(SF)).set_index("url_norm")
    u01 = normed.loc[0, "url_norm"]
    assert dedup.loc[u01, "n_variants"] == 2
    assert dedup.loc[u01, "first_doc"] == 0
    u2 = normed.loc[2, "url_norm"]
    assert dedup.loc[u2, "n_variants"] == 1


def test_anchor_kernel_zip_and_resolution():
    """href/anchor capture groups zip element-wise; site-relative anchors
    resolve to the page's own host."""
    from clangd_to_neo4j_ray.functions.duck import sql_over

    pages_s = pa.table(
        {
            "page_host": ["a.example.com"],
            "html_str": [
                '<a href="https://x.org/1">Alpha</a><p>t</p>'
                '<a href="/l">Self</a><a href="https://x.org/2">Alpha</a>'
            ],
        }
    )
    out = sql_over(
        f"WITH {lg._ANCHOR_CTES}\n{lg._ANCHOR_SELECT}", pages_s=pages_s
    )
    got = {(r["dst_host"], r["anchor"]): r["n_links"] for r in out.to_pylist()}
    assert got == {
        ("x.org", "Alpha"): 2,
        ("a.example.com", "Self"): 1,
    }


def test_boilerplate_set_cap_guard(monkeypatch, ray_session):
    """The broadcast-set byte cap fails loudly rather than shipping an
    unbounded set."""
    import pytest

    from clangd_to_neo4j_ray.stages import joins

    monkeypatch.setattr(joins, "BROADCAST_BYTES", 1)
    with pytest.raises(ValueError, match="boilerplate set"):
        wc.boilerplate_lines(SF)


def test_crawl_delta_matches_oracle(ray_session):
    assert_matches_oracle(
        wc.crawl_delta(SF), wc.ORACLE_SQL["crawl_delta"], SF
    )


def test_crawl_delta_status_classes(ray_session):
    """Exactly the synthesized dirty set comes out ((doc_id // 7) % 10
    selectors — decorrelated from the source assignment): ==3 removed,
    ==7 changed, one added page (id+1000000) per ==0 doc — and nothing
    else (unchanged pages never surface)."""
    df = to_pandas(wc.crawl_delta(SF))
    by = {s: set(g["doc_id"]) for s, g in df.groupby("status")}
    con = duckdb_con(SF)
    ids = [r[0] for r in con.sql("SELECT doc_id FROM documents").fetchall()]
    con.close()
    con2 = duckdb_con(SF)
    src19 = {
        r[0]
        for r in con2.sql(
            "SELECT doc_id FROM documents WHERE source = 'src19'"
        ).fetchall()
    }
    con2.close()
    assert by["removed"] == {
        i for i in ids if (i // 7) % 10 == 3
    } | src19
    assert by["changed"] == {
        i for i in ids if (i // 7) % 10 == 7 and i not in src19
    }
    assert by["added"] == {i + 1000000 for i in ids if (i // 7) % 10 == 0}
    assert len(df) == len(set(df["doc_id"]))


def test_anchor_entity_links_matches_oracle_and_nonvacuous(ray_session):
    assert_matches_oracle(
        lg.anchor_entity_links(SF), lg.ORACLE_SQL["anchor_entity_links"], SF
    )
    df = to_pandas(lg.anchor_entity_links(SF))
    assert len(df) > 0  # the fixture's leading-token anchors hit the vocab
    from clangd_to_neo4j_ray.pipelines.docs_kg import ENTITY_VOCAB

    assert set(df["name"]) <= set(ENTITY_VOCAB)


def test_url_normalization_idempotent_property():
    """hypothesis: normalization is a projection — applying the shared
    SQL expression to its own output changes nothing (for URLs built from
    the grammar the contract covers)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from clangd_to_neo4j_ray.functions.duck import sql_over

    def norm_many(urls):
        raw = pa.table(
            {
                "doc_id": pa.array(range(len(urls)), type=pa.int64()),
                "url_raw": pa.array(urls, type=pa.string()),
            }
        )
        out = sql_over(
            f"WITH {wc.URL_NORM_CTES}\nSELECT doc_id, url_norm FROM normed",
            raw=raw,
        )
        return out["url_norm"].to_pylist()

    label = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ09",
        min_size=1,
        max_size=8,
    )

    @st.composite
    def url(draw):
        scheme = draw(st.sampled_from(["http", "https", "HTTP", "Https"]))
        www = draw(st.booleans())
        host = ".".join(draw(st.lists(label, min_size=1, max_size=3)))
        port = draw(st.sampled_from(["", ":80", ":443"]))
        path = "".join("/" + draw(label) for _ in range(draw(st.integers(0, 3))))
        slash = draw(st.booleans())
        params = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "zz", "utm_source", "utm_x"]),
                    label,
                ),
                max_size=3,
            )
        )
        frag = draw(st.sampled_from(["", "#f", "#frag1"]))
        q = "&".join(f"{k}={v}" for k, v in params)
        return (
            f"{scheme}://{'www.' if www else ''}{host}{port}{path}"
            f"{'/' if slash and path else ''}{('?' + q) if q else ''}{frag}"
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(url(), min_size=1, max_size=20))
    def check(urls):
        once = norm_many(urls)
        twice = norm_many(once)
        assert once == twice

    check()


def test_host_age_profile_matches_oracle(ray_session, sf_dir):
    from clangd_to_neo4j_ray.stages.webcorpus import ORACLE_SQL, host_age_profile

    from .util import assert_matches_oracle

    assert_matches_oracle(
        host_age_profile(sf_dir), ORACLE_SQL["host_age_profile"], sf_dir
    )


def test_host_age_profile_window_sanity(ray_session, sf_dir):
    """first <= last per host; totals sum to the corpus; windows sit in
    the adapter's deterministic timeline."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.stages.webcorpus import host_age_profile

    rows = host_age_profile(sf_dir).take_all()
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["source"])
    assert sum(r["n_pages"] for r in rows) == len(docs)
    base = 1735689600 // 60
    for r in rows:
        assert base <= r["first_minute"] <= r["last_minute"]
