"""Context-scored disambiguation unit tests (ambiguous shared aliases), on
the spec ``EntityLinker`` and on the stage kernel ``LinkScan``."""

from __future__ import annotations

import pyarrow as pa

from clangd_to_neo4j_ray.stages.linking import EntityLinker

from .util import link_kernel_rows, link_spec_rows


def _lut(order=("id_a", "id_b")):
    names = {"id_a": "EntityA", "id_b": "EntityB"}
    return {
        "EntityA": "id_a",
        "EntityB": "id_b",
        "EntityC": "id_c",
        "Corp": [(eid, names[eid]) for eid in order],
    }


def _link(lut, text):
    """``link_text`` of ``text``, after checking that ``LinkScan`` gives
    the same rows for it, alone and in one batch with the other pages of
    this module (context never crosses a page)."""
    texts = [text, *(t for t in TEXTS if t != text)]
    urls = [f"u{i}" for i in range(len(texts))]
    for n in (1, len(texts)):
        batch = pa.table({"url": urls[:n], "text": texts[:n]})
        assert link_kernel_rows(lut, batch) == link_spec_rows(lut, urls[:n], texts[:n])
    return EntityLinker(lut).link_text("u", text)


B_CONTEXT = "EntityB appears in this report. EntityC works for Corp."
NO_CONTEXT = "EntityC works for Corp."
BOTH = (
    "EntityB appears in this report. EntityA appears in this report. "
    "EntityC works for Corp."
)
TEXTS = (B_CONTEXT, NO_CONTEXT, BOTH)


def test_ambiguous_resolved_by_page_context():
    # EntityB mentioned unambiguously -> Corp resolves to id_b
    mentions, triples = _link(_lut(), B_CONTEXT)
    assert triples == [("id_c", "works_for", "id_b", "u", 32, 54)]
    assert [m[1] for m in mentions] == ["id_b", "id_c", "id_b"]


def test_ambiguous_fallback_min_id():
    # no candidate context -> deterministic min entity_id
    mentions, triples = _link(_lut(), NO_CONTEXT)
    assert triples[0][2] == "id_a"


def test_context_prefers_min_id_when_both_present():
    _m, triples = _link(_lut(), BOTH)
    assert triples[0][2] == "id_a"  # both present -> ascending-id order wins


def test_context_follows_candidate_list_order():
    # the candidate list's order decides, for the fallback as well
    lut = _lut(order=("id_b", "id_a"))
    assert _link(lut, BOTH)[1][0][2] == "id_b"
    assert _link(lut, NO_CONTEXT)[1][0][2] == "id_b"
