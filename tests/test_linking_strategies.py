"""The link kernel against its spec: ``LinkScan`` over a batch gives the
rows ``EntityLinker(lut).link_text`` gives document by document, char
offsets and ``anchored`` included (the reference's clang/treesitter parser
pair is likewise one fast parser tested against one slow one)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from clangd_to_neo4j_ray.sources.fixtures import alias_lookup, generate_pages
from clangd_to_neo4j_ray.stages.linking import TAG_SCHEMA, LinkScan

from .util import link_kernel_rows, link_spec_rows

LUT = {
    "Alpha Beta": "e1",
    "Gamma": "e2",
    "Alpha": "e3",
    "AT&T": "e4",
    "Zürich": "e5",
    "Corp": [("e2", "Gamma"), ("e3", "Alpha")],
}


def _agree(lut: dict, texts: list, typ=pa.string()) -> None:
    urls = [f"u{i}" for i in range(len(texts))]
    batch = pa.table({"url": pa.array(urls, pa.string()), "text": pa.array(texts, typ)})
    assert link_kernel_rows(lut, batch) == link_spec_rows(lut, urls, texts), texts


def test_token_and_regex_scans_agree():
    """The fixture corpus as one batch and as 8 slices of it."""
    fx = generate_pages(200)
    lut = alias_lookup(fx.entities)
    batch = fx.pages.select(["url", "text"])
    for lo in [None, *range(0, 200, 25)]:
        part = batch if lo is None else batch.slice(lo, 25)
        urls, texts = part["url"].to_pylist(), part["text"].to_pylist()
        assert link_kernel_rows(lut, part) == link_spec_rows(lut, urls, texts)


TEXTS = [
    "Alpha Beta works for Gamma.",
    '"Alpha Beta" works for (Gamma).',
    "It links to Gamma.",
    "Gamma! And Alpha Beta.",
    "AlphaX Beta and Gammas.",  # must NOT match
    "Alpha, Beta and Gamma.",  # internal punct breaks the phrase
    "Alpha. Beta near Gamma.",
    "Alpha; Beta!",
    'Alpha" Beta then "Alpha Beta".',  # broken then intact
    # punctuation inside a token: the spec finds the alnum-bounded alias
    "Alpha-Beta works for Alpha's Gamma.",
    "Gamma.Alpha links to Alpha.Beta.",
    # non-ASCII: a boundary, and char offsets differ from byte offsets
    "ÄAlpha is located in Zürich. It links to Gamma.",
    "Zürichs, Zürich-Alpha; éAlpha works for Gamma.",
    # an alias with an inner separator, and an ambiguous one
    "AT&T works for Corp. Alpha is affiliated with AT&T.",
    "AT & T works for ATandT. Corp links to Alpha.",
    # the spec strips what str.strip() strips, not only spaces
    "Alpha\xa0works for\u3000Gamma. It\x1clinks to Alpha. It links to\x1fGamma.",
]


def test_token_scan_edge_punctuation():
    for text in TEXTS:
        _agree(LUT, [text])
    _agree(LUT, TEXTS)
    _agree(LUT, TEXTS, pa.large_string())


def test_multi_token_alias_internal_punctuation_no_false_positive():
    """'New, York' must NOT match alias 'New York' (ADVICE r1), and a
    mention's span is the alias exactly."""
    lut = {"New York": "e1"}
    texts = ["New, York is big.", "New York is big.", "We saw New York today."]
    batch = pa.table({"url": ["a", "b", "c"], "text": texts})
    out = LinkScan(lut)(batch).filter(pa.compute.equal(pa.compute.field("kind"), "mention"))
    assert out.select(["url", "start", "end"]).to_pylist() == [
        {"url": "b", "start": 0, "end": 8},
        {"url": "c", "start": 7, "end": 15},
    ]
    _agree(lut, texts)


def test_link_scan_edge_batches():
    """A 0-row batch, empty and null text, a row that ends in "." before a
    row that starts with a space (no sentence boundary between them), a
    last sentence without ".", a row that ends in the first run of an
    alias the next row completes, a sliced and a chunked text column."""
    empty = pa.table({"url": pa.array([], pa.string()), "text": pa.array([], pa.string())})
    assert LinkScan(LUT)(empty).equals(TAG_SCHEMA.empty_table())
    _agree(LUT, [""])
    _agree(LUT, ["", "Alpha works for Gamma.", ""])
    _agree(LUT, ["Alpha works for Gamma.", " It links to Alpha.", "It links to Gamma"])
    _agree(LUT, ["Alpha works for Gamma. It links to Alpha", "Gamma links to"])
    _agree(LUT, ["Gamma works for Alpha ", "Beta links to Gamma."])  # no alias across rows
    batch = pa.table({"url": ["a", "b"], "text": [None, "It links to Gamma."]})
    want = link_spec_rows(LUT, ["a", "b"], ["", "It links to Gamma."])
    assert link_kernel_rows(LUT, batch) == want
    texts = ["Alpha works for Gamma.", " It links to Corp.", "Zürich links to Alpha."]
    urls = ["a", "b", "c"]
    whole = pa.table({"url": urls, "text": texts})
    chunked = pa.table(
        {"url": urls, "text": pa.chunked_array([texts[:1], texts[1:]], pa.string())}
    )
    assert link_kernel_rows(LUT, chunked) == link_spec_rows(LUT, urls, texts)
    assert link_kernel_rows(LUT, whole.slice(1)) == link_spec_rows(LUT, urls[1:], texts[1:])


def test_link_scan_refuses_surfaces_outside_the_run_model():
    """An alias matches whole ASCII-alnum runs, so a surface that starts or
    ends with anything else is refused by name; the F2 dictionary passes."""
    for bad in ["C++", ".NET", "", " Alpha", "Zürichö"]:
        with pytest.raises(ValueError, match="ASCII letter or digit") as err:
            LinkScan({**LUT, bad: "e9"})
        assert repr(bad) in str(err.value)
    LinkScan(alias_lookup(generate_pages(1).entities))
