"""Host-level web link graph (stages/linkgraph.py).

The web analog of the reference's include-graph extraction
(``clangd_include_graph_builder.py``): href scan over raw html bytes,
site-relative resolution against the page's own host, host-pair edge
aggregation.  Kernel semantics are pinned on handcrafted html here; the
full distributed plan is oracle-checked end-to-end.
"""

from __future__ import annotations

import pyarrow as pa

from clangd_to_neo4j_ray.stages import linkgraph as lg

from .util import assert_matches_oracle, to_pandas

SF = "/root/testdata/sf0.001"


def _kernel(pages: list[tuple[str, bytes]]) -> dict[tuple[str, str], int]:
    hosts = pa.array([h for h, _ in pages], type=pa.string())
    html = pa.array([b for _, b in pages], type=pa.binary())
    out = lg.extract_link_partials(hosts, html)
    return {
        (r["src_host"], r["dst_host"]): r["n_links"] for r in out.to_pylist()
    }


def test_kernel_absolute_and_relative_resolution():
    got = _kernel(
        [
            (
                "a.example.com",
                b'<p>x</p><a href="https://b.example.org/p/1">b</a>'
                b'<a href="http://c.example.net/">c</a>'
                b'<a href="/local/7">self</a>'
                b'<a href="https://b.example.org/p/2">b again</a>',
            ),
        ]
    )
    assert got == {
        ("a.example.com", "b.example.org"): 2,
        ("a.example.com", "c.example.net"): 1,
        ("a.example.com", "a.example.com"): 1,
    }


def test_kernel_ignores_out_of_contract_hrefs():
    # mailto:, javascript:, fragments, and non-root relative links are
    # dropped by design; scheme-relative resolves to its own host
    got = _kernel(
        [
            (
                "a.example.com",
                b'<a href="mailto:x@y.z">m</a>'
                b'<a href="javascript:void(0)">j</a>'
                b'<a href="#frag">f</a>'
                b'<a href="//cdn.example.org/x">scheme-rel</a>'
                b'<a href="sub/page">rel</a>',
            ),
            ("b.example.com", b"<p>no links at all</p>"),
        ]
    )
    assert got == {("a.example.com", "cdn.example.org"): 1}


def test_synthesized_pages_full_contract_schema():
    pages = lg.synthesize_pages(SF)
    schema = pages.schema()
    assert schema.names == ["url", "warc_ts", "html", "text", "lang"]
    types = dict(zip(schema.names, schema.types))
    assert types["html"] == pa.binary()
    assert str(types["warc_ts"]).startswith("timestamp")
    rows = pages.take(3)
    # deterministic: html derives from (doc_id, text) only
    assert rows[0]["html"].startswith(b"<html><head><title>doc ")
    assert rows[0]["url"].startswith("https://")


def test_web_link_graph_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.web_link_graph(SF), lg.ORACLE_SQL["web_link_graph"], SF
    )


def test_link_host_degrees_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_host_degrees(SF), lg.ORACLE_SQL["link_host_degrees"], SF
    )


def test_link_host_pagerank_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_host_pagerank(SF), lg.ORACLE_SQL["link_host_pagerank"], SF
    )


def test_pagerank_covers_every_host(ray_session):
    """The rank table covers exactly the hosts of the degree rollup —
    including pure link targets (dangling nodes, mass dropped by the
    documented variant) and pure sources."""
    hosts = set(to_pandas(lg.link_host_degrees(SF))["host"])
    ranked = to_pandas(lg.link_host_pagerank(SF))
    assert set(ranked["host"]) == hosts
    assert (ranked["pr_scaled"] > 0).all()


def test_degree_conservation(ray_session):
    """Sum of out_links == sum of in_links == total edge weight."""
    df = to_pandas(lg.link_host_degrees(SF))
    assert df["out_links"].sum() == df["in_links"].sum()
    edges = to_pandas(lg.web_link_graph(SF))
    assert df["out_links"].sum() == edges["n_links"].sum()


def test_link_cocitation_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_cocitation(SF), lg.ORACLE_SQL["link_cocitation"], SF
    )


def test_link_host_pagerank_weighted_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_host_pagerank_weighted(SF),
        lg.ORACLE_SQL["link_host_pagerank_weighted"],
        SF,
    )


def test_link_host_hits_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_host_hits(SF), lg.ORACLE_SQL["link_host_hits"], SF
    )


def test_url_frontier_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.url_frontier(SF), lg.ORACLE_SQL["url_frontier"], SF
    )


def test_url_frontier_excludes_crawled_pages(ray_session):
    """The anti-join does real work: intra-corpus next-doc links vanish,
    only the 20 dangling next-links past the last doc (plus the external
    ring and /local targets) remain."""
    import duckdb

    df = to_pandas(lg.url_frontier(SF))
    doc_refs = df[df["url"].str.contains("/doc/")]
    con = duckdb.connect()
    docs = f"read_parquet('{SF}/documents.parquet')"
    n = con.sql(f"SELECT count(*) FROM {docs}").fetchone()[0]
    corpus_urls = {
        u
        for (u,) in con.sql(
            "SELECT 'https://' || source || '.example.com/doc/' "
            f"|| CAST(doc_id AS VARCHAR) FROM {docs}"
        ).fetchall()
    }
    con.close()
    assert len(doc_refs) == 20  # the last 20 docs' next links dangle
    # every dangling ref points past the corpus
    ids = doc_refs["url"].str.extract(r"/doc/(\d+)$")[0].astype(int)
    assert (ids >= n).all()
    # no frontier URL is a corpus page
    assert len(corpus_urls) == n
    assert not set(df["url"]) & corpus_urls


def test_host_profiles_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.host_profiles(SF), lg.ORACLE_SQL["host_profiles"], SF
    )


def test_host_profiles_pure_targets_and_sources(ray_session):
    """Ring hosts (pure link targets) carry zero pages but positive
    in-links; content hosts carry pages and out-links."""
    df = to_pandas(lg.host_profiles(SF)).set_index("host")
    ring = df[df.index.str.endswith(".example.org")]
    assert (ring["n_pages"] == 0).all() and (ring["in_links"] > 0).all()
    content = df[df.index.str.endswith(".example.com")]
    assert (content["n_pages"] > 0).all() and (content["out_links"] > 0).all()
    assert (content["n_tokens"] > 0).all()


def test_link_graph_delta_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_graph_delta(SF), lg.ORACLE_SQL["link_graph_delta"], SF
    )


def test_link_graph_delta_all_classes(ray_session):
    """The edge delta exercises all three classes: new-host pages yield
    'added', per-page removals on shared edges yield 'changed', and the
    offline host (src19) yields pure 'removed' edges."""
    df = to_pandas(lg.link_graph_delta(SF))
    classes = set(df["status"])
    assert classes == {"added", "removed", "changed"}
    rm = df[df["status"] == "removed"]
    assert (rm["src_host"] == "src19.example.com").all()
    assert (rm["n_links_b"] == 0).all() and (rm["n_links_a"] > 0).all()
    ad = df[df["status"] == "added"]
    assert (ad["n_links_a"] == 0).all() and (ad["n_links_b"] > 0).all()
    assert ad["src_host"].str.endswith("new.example.com").all()
    ch = df[df["status"] == "changed"]
    assert (ch["n_links_a"] != ch["n_links_b"]).all()
    assert (ch["n_links_a"] > 0).all() and (ch["n_links_b"] > 0).all()


def test_link_bowtie_matches_oracle(ray_session):
    assert_matches_oracle(
        lg.link_bowtie(SF), lg.ORACLE_SQL["link_bowtie"], SF
    )


def test_bowtie_all_regions_on_handbuilt_graph(ray_session):
    """Full region coverage (the synthesized corpus has no 'in' hosts):
    in1 -> in2 -> coreA <-> coreB -> out1 -> out2, plus an isolated
    disc1 <-> disc2 pair.  Pivot = max weighted degree = coreA (weight 9
    on the core cycle dominates).  Distances are BFS-exact."""
    import ray as _ray

    from clangd_to_neo4j_ray.stages.linkgraph import bowtie_from_edges

    edges = _ray.data.from_arrow(
        pa.table(
            {
                "src_host": pa.array(
                    ["in1", "in2", "coreA", "coreB", "coreB", "out1",
                     "disc1", "disc2"]
                ),
                "dst_host": pa.array(
                    ["in2", "coreA", "coreB", "coreA", "out1", "out2",
                     "disc2", "disc1"]
                ),
                "n_links": pa.array([1, 1, 9, 9, 1, 1, 1, 1], type=pa.int64()),
            }
        )
    )
    got = {
        r["host"]: (r["region"], r["hops_from"], r["hops_to"])
        for r in bowtie_from_edges(edges).take_all()
    }
    assert got == {
        "coreA": ("core", 0, 0),
        "coreB": ("core", 1, 1),
        "in1": ("in", -1, 2),
        "in2": ("in", -1, 1),
        "out1": ("out", 2, -1),
        "out2": ("out", 3, -1),
        "disc1": ("disc", -1, -1),
        "disc2": ("disc", -1, -1),
    }
