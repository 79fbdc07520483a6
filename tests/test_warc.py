"""WARC source (sources/warc.py): Common-Crawl-native record ingestion.

Roundtrip-pinned: fixture pages serialized to WARC (plain + gzip) read
back byte-identical, and the extract stage derives the SAME text from the
WARC path as from the Parquet path (the input_hint per-row invariant,
carried across the source format)."""

from __future__ import annotations

import pyarrow as pa

from clangd_to_neo4j_ray.sources.fixtures import generate_pages
from clangd_to_neo4j_ray.sources.warc import (
    parse_warc_bytes,
    read_warc,
    record_bytes,
    write_warc_files,
)
from clangd_to_neo4j_ray.stages.extract import extract_stage, extract_text_from_html


def _fixture_pages(n: int = 120) -> pa.Table:
    return generate_pages(n).pages


def test_record_roundtrip_single():
    rec = record_bytes(
        "https://a.example.com/x", 1735689600000000, b"<p>hi</p>", "en"
    )
    t = parse_warc_bytes(rec)
    assert t["url"].to_pylist() == ["https://a.example.com/x"]
    assert t["html"].to_pylist() == [b"<p>hi</p>"]
    assert t["lang"].to_pylist() == ["en"]
    assert t["warc_ts"].cast(pa.int64()).to_pylist() == [1735689600000000]


def test_non_response_records_skipped_by_type():
    req = (
        b"WARC/1.0\r\nWARC-Type: request\r\n"
        b"WARC-Target-URI: https://a/x\r\n"
        b"WARC-Date: 2025-01-01T00:00:00Z\r\n"
        b"Content-Length: 3\r\n\r\nGET\r\n\r\n"
    )
    resp = record_bytes("https://a/y", 1735689600000000, b"<p>b</p>", "en")
    t = parse_warc_bytes(req + resp + req)
    assert t["url"].to_pylist() == ["https://a/y"]


def test_truncated_payload_raises():
    rec = record_bytes("https://a/x", 1735689600000000, b"0123456789", "en")
    import pytest

    with pytest.raises(ValueError, match="truncated"):
        parse_warc_bytes(rec[:-6])  # cut into the payload


def _cc_record(warc_type: str, url: str, payload: bytes) -> bytes:
    """One Common-Crawl-shaped record, gzipped on its own (CC .warc.gz
    files are one gzip member per record)."""
    import gzip

    rec = (
        b"WARC/1.0\r\nWARC-Type: " + warc_type.encode() + b"\r\n"
        b"WARC-Date: 2025-01-01T00:00:00Z\r\n"
        b"WARC-Target-URI: " + url.encode() + b"\r\n"
        b"Content-Type: application/http; msgtype=" + warc_type.encode() + b"\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n"
        + payload + b"\r\n\r\n"
    )
    return gzip.compress(rec, mtime=0)


def test_http_envelope_stripped_from_response_records(tmp_path):
    bodies = {
        "https://a.example.com/p1": (
            b"<html><body><p>Alpha works for Beta.</p>\r\n\r\n"
            b"<p>It links to Gamma.</p></body></html>"
        ),
        "https://b.example.com/p2": b"<html><body><p>Delta.</p></body></html>",
    }
    records = [
        _cc_record(
            "response",
            url,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=UTF-8\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        for url, body in bodies.items()
    ]
    request = _cc_record(
        "request", "https://a.example.com/p1",
        b"GET /p1 HTTP/1.1\r\nHost: a.example.com\r\n\r\n",
    )
    path = tmp_path / "cc.warc.gz"
    path.write_bytes(records[0] + request + records[1])

    got = read_warc(str(path)).take_all()
    assert {r["url"]: r["html"] for r in got} == bodies
    for r in got:
        assert extract_text_from_html(r["html"]) == extract_text_from_html(
            bodies[r["url"]]
        )
    assert extract_text_from_html(bodies["https://a.example.com/p1"]) == (
        "Alpha works for Beta. It links to Gamma."
    )


def test_warc_files_roundtrip_and_extract_parity(ray_session, tmp_path):
    pages = _fixture_pages()
    for compress in (False, True):
        d = tmp_path / ("gz" if compress else "plain")
        paths = write_warc_files(
            pages, str(d), num_files=4, compress=compress
        )
        assert len(paths) == 4
        ds = read_warc([str(p) for p in paths])
        got = (
            ds.to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        exp = (
            pages.select(["url", "warc_ts", "html", "lang"])
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert got["url"].tolist() == exp["url"].tolist()
        assert got["html"].tolist() == exp["html"].tolist()
        assert got["lang"].tolist() == exp["lang"].tolist()
        assert (
            got["warc_ts"].astype("int64").tolist()
            == exp["warc_ts"].astype("int64").tolist()
        )

        # input_hint per-row invariant across source formats: extract
        # derives byte-identical text from the WARC path
        warc_text = {
            r["url"]: r["text"]
            for r in extract_stage(read_warc([str(p) for p in paths])).take_all()
        }
        parquet_text = dict(
            zip(pages["url"].to_pylist(), pages["text"].to_pylist())
        )
        assert warc_text == parquet_text


def test_build_graph_from_warc_equals_parquet(ray_session, tmp_path):
    """End-to-end: the flagship KG build over WARC input emits the exact
    triple set of the Parquet path (same fixture, both formats)."""
    import pyarrow.parquet as pq

    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
    from clangd_to_neo4j_ray.sources.fixtures import generate_pages, make_entities

    fx = generate_pages(150)
    pq_dir = tmp_path / "pq"
    pq_dir.mkdir()
    pq.write_table(fx.pages, str(pq_dir / "part-0.parquet"))
    warc_dir = tmp_path / "warc"
    write_warc_files(fx.pages, str(warc_dir), num_files=3)

    ents = make_entities()
    m1 = build_graph(
        str(pq_dir), ents, str(tmp_path / "out_pq"), write_neo4j_csv=False
    )
    m2 = build_graph(
        str(warc_dir),
        ents,
        str(tmp_path / "out_warc"),
        write_neo4j_csv=False,
        source_format="warc",
    )

    def triples(out):
        import pyarrow.dataset as pads

        t = pads.dataset(f"{out}/triples").to_table()
        cols = ["subj_id", "pred", "obj_id"] if "subj_id" in t.column_names else sorted(t.column_names)
        return sorted(map(tuple, t.select(cols).to_pandas().itertuples(index=False)))

    assert triples(tmp_path / "out_warc") == triples(tmp_path / "out_pq")
    if "counts" in m1:
        assert m1["counts"] == m2["counts"]
