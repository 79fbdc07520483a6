"""Stage E: text extraction from raw HTML — byte-identical per url.

The analog of the reference's YAML parse pass (S1/S2,
``clangd_index_yaml_parser.py:241-260,310-372``): schema-on-read bytes in,
normalized records out, embarrassingly parallel, with the per-row invariant
from BASELINE.json input_hint (extracted text byte-identical per url,
pytest-gated).

Scale notes: rows are wide (html can be MBs).  The stage maps whole
blocks (no batch size, so Ray fuses it with the read before it), and
``sources.pages.read_pages`` streams its files one Parquet row group at
a time into blocks of at most the DataContext's ``target_max_block_size``;
``html`` is projected away right after extraction, so downstream blocks
are narrow and no html reaches the object store.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data

# Boilerplate blocks dropped before paragraph extraction (FIXTURES.md F1:
# <nav>/<script> must not leak into text) — the tab-sanitizer analog (M2,
# clangd_index_yaml_parser.py:245-248).
_DROP_BLOCKS = re.compile(rb"<(script|nav|style)\b.*?</\1>", re.S)
_PARAGRAPH = re.compile(rb"<p>(.*?)</p>", re.S)
_TAG = re.compile(rb"<[^>]+>")


def extract_text_from_html(html: bytes) -> str:
    """Extract visible text: drop script/nav/style, join <p> blocks with ' ',
    strip any residual tags. Pure function — unit-testable without Ray."""
    cleaned = _DROP_BLOCKS.sub(b"", html)
    paras = _PARAGRAPH.findall(cleaned)
    if paras:
        body = b" ".join(_TAG.sub(b"", p) for p in paras)
    else:
        body = _TAG.sub(b" ", cleaned).strip()
    return body.decode("utf-8")


def extract_batch(batch: pa.Table) -> pa.Table:
    """html -> text; drops the html column immediately (narrow blocks out).

    A row with null html keeps its existing ``text`` (pre-extracted input,
    e.g. the documents-table adapter) — null bytes must never crash the
    stage (ADVICE r1)."""
    if "html" not in batch.column_names:
        return batch
    htmls = batch["html"].to_pylist()
    olds = (
        batch["text"].to_pylist()
        if "text" in batch.column_names
        else [None] * len(htmls)
    )
    texts = [
        extract_text_from_html(h) if h is not None else old
        for h, old in zip(htmls, olds)
    ]
    out = batch.drop_columns(["html"])
    if "text" in out.column_names:
        out = out.drop_columns(["text"])
    return out.append_column("text", pa.array(texts, type=pa.string()))


def extract_stage(pages: ray.data.Dataset) -> ray.data.Dataset:
    """pages(url, warc_ts, html, ...) -> (url, warc_ts, lang, text)."""
    return pages.map_batches(extract_batch, batch_format="pyarrow")
