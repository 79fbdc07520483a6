"""WARC source: Common-Crawl-native record files -> the pages contract.

The north-star input is Common-Crawl-style web pages; this reader ingests
the archive format they actually ship in — WARC/1.0 ``response`` records
(optionally gzipped, detected by magic bytes) — and emits the
BASELINE.json input_hint schema ``(url, warc_ts, html, lang)``; ``text``
is derived downstream by ``stages.extract`` exactly as for Parquet pages,
so the byte-identical-extract invariant carries over unchanged (pinned by
the roundtrip test in tests/test_warc.py).

Reference analog: the index reader family (S1/S2,
``clangd_index_yaml_parser.py:241-260,310-372`` — schema-on-read bytes in,
records out).  Scale shape: one WARC file is one block, parsed inside the
read task of its split of files (``sources.pages.read_split``, the
Parquet pages' own source; CC shards its crawls into ~1 GB WARC files,
so file-level parallelism is the native partitioning), so a build fuses
the parse with extract and the link scan.  The record walk inside a file
is a sequential header scan exactly like real warcio — IO-dominated, no
cross-record state, wide rows projected away by the extract stage.

Only ``WARC-Type: response`` records are ingested; request/metadata
records (present in real crawls) are skipped by type, never by position.
A payload that starts with an HTTP status line (``HTTP/1.1 200 OK``, as in
real Common Crawl records) has its HTTP header block stripped, so ``html``
is the response body alone.
"""

from __future__ import annotations

import gzip
from collections.abc import Iterable
from datetime import datetime, timezone

import pyarrow as pa
import ray.data

from .pages import list_files, read_split

_CRLF = b"\r\n"
_HDR_END = b"\r\n\r\n"


def _format_warc_date(ts_us: int) -> str:
    dt = datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int:
    dt = datetime.strptime(s, "%Y-%m-%dT%H:%M:%SZ").replace(
        tzinfo=timezone.utc
    )
    return int(dt.timestamp() * 1_000_000)


def record_bytes(url: str, ts_us: int, html: bytes, lang: str) -> bytes:
    """One WARC/1.0 response record (headers + payload + record separator)."""
    headers = (
        b"WARC/1.0" + _CRLF
        + b"WARC-Type: response" + _CRLF
        + b"WARC-Target-URI: " + url.encode("utf-8") + _CRLF
        + b"WARC-Date: " + _format_warc_date(ts_us).encode("ascii") + _CRLF
        + b"WARC-Identified-Content-Language: " + lang.encode("utf-8") + _CRLF
        + b"Content-Length: " + str(len(html)).encode("ascii") + _CRLF
    )
    return headers + _CRLF + html + _HDR_END


def parse_warc_bytes(buf: bytes) -> pa.Table:
    """All response records of one WARC file -> pages-schema Arrow table.

    Gzip is detected by magic bytes (real CC files are .warc.gz).  The
    walk is header-scan + Content-Length skip — malformed trailing bytes
    raise rather than silently truncate."""
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    langs: list[str] = []
    pos = 0
    n = len(buf)
    while pos < n:
        hdr_end = buf.find(_HDR_END, pos)
        if hdr_end < 0:
            if buf[pos:].strip():
                raise ValueError(f"truncated WARC header at byte {pos}")
            break
        header = buf[pos:hdr_end].decode("utf-8")
        lines = header.split("\r\n")
        if not lines[0].startswith("WARC/"):
            raise ValueError(f"bad WARC version line at byte {pos}: {lines[0]!r}")
        fields = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            fields[k.strip().lower()] = v.strip()
        length = int(fields["content-length"])
        body_start = hdr_end + len(_HDR_END)
        body = buf[body_start : body_start + length]
        if len(body) != length:
            raise ValueError(f"truncated WARC payload at byte {body_start}")
        pos = body_start + length + len(_HDR_END)
        if fields.get("warc-type") != "response":
            continue
        if body.startswith(b"HTTP/"):
            http_end = body.find(_HDR_END)
            if http_end >= 0:
                body = body[http_end + len(_HDR_END) :]
        urls.append(fields["warc-target-uri"])
        tss.append(_parse_warc_date(fields["warc-date"]))
        htmls.append(body)
        langs.append(fields.get("warc-identified-content-language", ""))
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us", tz="UTC")),
            "html": pa.array(htmls, type=pa.binary()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def _warc_file(path: str) -> Iterable[pa.Table]:
    with open(path, "rb") as f:
        yield parse_warc_bytes(f.read())


def read_warc(paths: str | list[str]) -> ray.data.Dataset:
    """WARC file(s)/dir -> pages-schema Dataset (url, warc_ts, html, lang).

    One file = one block (the crawl's native sharding), parsed inside its
    split's read task (``sources.pages.read_split``); feed the result to
    ``stages.extract.extract_stage`` to derive ``text``."""
    return read_split(list_files(paths), _warc_file)


def write_warc_files(
    pages: pa.Table, out_dir: str, *, num_files: int = 4, compress: bool = False
) -> list[str]:
    """Pages-schema table -> WARC files (row-range sharded, optionally
    gzipped).  The fixture-side serializer for tests and demos; a real
    crawl arrives already in this format."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    n = len(pages)
    per = max(1, (n + num_files - 1) // num_files)
    out: list[str] = []
    ts = pages["warc_ts"].cast(pa.int64()).to_pylist()
    urls = pages["url"].to_pylist()
    htmls = pages["html"].to_pylist()
    langs = pages["lang"].to_pylist()
    for i in range(0, n, per):
        chunk = b"".join(
            record_bytes(urls[j], ts[j], htmls[j], langs[j])
            for j in range(i, min(i + per, n))
        )
        suffix = ".warc.gz" if compress else ".warc"
        path = os.path.join(out_dir, f"part-{i // per:05d}{suffix}")
        with open(path, "wb") as f:
            f.write(gzip.compress(chunk, mtime=0) if compress else chunk)
        out.append(path)
    return out
