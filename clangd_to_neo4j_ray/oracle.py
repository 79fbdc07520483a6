"""Single-process reference extractor/linker — the P/R oracle.

A deliberately simple (~100 line) sequential implementation of the same
extraction + linking + canonicalization semantics as the distributed
pipeline, used by pytest to compute triple-set precision/recall (gate >=0.95,
BASELINE.json north_rule) and, with ``oracle_graph``, the exact node and
edge multisets a build must publish.  This plays the role the reference's own extractor
semantics play for the P/R comparison (SURVEY §5): an independently-written,
trivially-auditable implementation over the same fixture.

It shares only the *spec* with the engine (sentence grammar, longest-match
alias rule, nearest-preceding-anchor pronoun resolution, min-url dedup), not
the code paths: a separate regex scan and a plain dict-based dedup.
"""

from __future__ import annotations

import re
from collections import Counter
from urllib.parse import urlsplit

from .sources.fixtures import EntityRecord
from .stages.extract import extract_text_from_html

PRED_PHRASES = {
    "works for": "works_for",
    "is located in": "located_in",
    "is affiliated with": "affiliated_with",
    "links to": "links_to",
}


def _dictionary(entities: list[EntityRecord]):
    """(alias regex, resolve(alias, page entity ids) -> entity id,
    page_context(text) -> the page's entity ids for ``resolve``)."""
    from .sources.fixtures import shared_aliases

    lut: dict = {a: e.entity_id for e in entities for a in e.aliases}
    lut.update(shared_aliases(entities))
    pattern = re.compile(
        r"(?<![A-Za-z0-9])("
        + "|".join(re.escape(a) for a in sorted(lut, key=len, reverse=True))
        + r")(?![A-Za-z0-9])"
    )

    def resolve(alias: str, doc_eids: set[str]) -> str:
        v = lut[alias]
        if isinstance(v, str):
            return v
        for eid, _canonical in v:
            if eid in doc_eids:
                return eid
        return v[0][0]

    def page_context(text: str) -> set[str]:
        """Unambiguous mentions anywhere on the page."""
        return {
            lut[m.group(1)]
            for m in pattern.finditer(text)
            if isinstance(lut[m.group(1)], str)
        }

    return pattern, resolve, page_context


def oracle_triples(
    pages: list[dict], entities: list[EntityRecord]
) -> dict[tuple[str, str, str], str]:
    """pages rows (url, html) -> {(subj, pred, obj): min_evidence_url}."""
    pattern, resolve, page_context = _dictionary(entities)
    out: dict[tuple[str, str, str], str] = {}
    for row in pages:
        url = row["url"]
        text = extract_text_from_html(row["html"])
        doc_eids = page_context(text)
        last_subject = None
        for sent in text.split(". "):
            if not sent.endswith("."):
                sent = sent + "."
            ms = list(pattern.finditer(sent))
            triple = None
            if len(ms) == 2:
                middle = sent[ms[0].end() : ms[1].start()].strip()
                if middle in PRED_PHRASES:
                    subj = resolve(ms[0].group(1), doc_eids)
                    triple = (
                        subj,
                        PRED_PHRASES[middle],
                        resolve(ms[1].group(1), doc_eids),
                    )
                    last_subject = subj
            elif len(ms) == 1 and sent.startswith("It "):
                middle = sent[3 : ms[0].start()].strip()
                if middle in PRED_PHRASES and last_subject is not None:
                    triple = (
                        last_subject,
                        PRED_PHRASES[middle],
                        resolve(ms[0].group(1), doc_eids),
                    )
            if triple is not None:
                if triple not in out or url < out[triple]:
                    out[triple] = url
    return out


def oracle_graph(
    pages: list[dict], entities: list[EntityRecord]
) -> tuple[Counter, Counter]:
    """pages rows (url, html) -> (node multiset, edge multiset) of the
    built graph, written from the spec:

    - nodes (node_id, label, name): one PROJECT ``project:root`` named
      ``root``; one DOMAIN ``domain:<host>`` per url host; one FOLDER
      ``folder:<host>/<seg1>/.../<segk>`` per path prefix that stops before
      a url's last segment; one PAGE ``page:<url>`` named by its url; one
      ENTITY ``entity:<id>`` per mentioned entity, named by its canonical
      name;
    - edges (src, type, dst): CONTAINS project -> domain -> each folder
      level -> page (a page hangs off its deepest folder, else its
      domain); MENTIONS page -> entity, once per (page, entity); one
      relation edge ``entity:<subj>`` -<pred>-> ``entity:<obj>`` per
      distinct triple of ``oracle_triples``."""
    pattern, resolve, page_context = _dictionary(entities)
    names = {e.entity_id: e.canonical_name for e in entities}
    containers: dict[str, tuple[str, str, str]] = {}  # id -> (parent, label, name)
    nodes: Counter = Counter()
    edges: Counter = Counter()
    mentions: set[tuple[str, str]] = set()
    for row in pages:
        url = row["url"]
        parts = urlsplit(url)
        segments = [s for s in parts.path.split("/") if s]
        parent = "domain:" + parts.netloc
        containers[parent] = ("project:root", "DOMAIN", parts.netloc)
        for depth in range(1, len(segments)):
            folder = parts.netloc + "/" + "/".join(segments[:depth])
            containers["folder:" + folder] = (parent, "FOLDER", folder)
            parent = "folder:" + folder
        nodes[("page:" + url, "PAGE", url)] += 1
        edges[(parent, "CONTAINS", "page:" + url)] += 1
        text = extract_text_from_html(row["html"])
        doc_eids = page_context(text)
        mentions |= {(url, resolve(m.group(1), doc_eids)) for m in pattern.finditer(text)}
    if pages:
        nodes[("project:root", "PROJECT", "root")] += 1
    for node_id, (parent, label, name) in containers.items():
        nodes[(node_id, label, name)] += 1
        edges[(parent, "CONTAINS", node_id)] += 1
    for eid in {eid for _url, eid in mentions}:
        nodes[("entity:" + eid, "ENTITY", names.get(eid, eid))] += 1
    for url, eid in mentions:
        edges[("page:" + url, "MENTIONS", "entity:" + eid)] += 1
    for subj, pred, obj in oracle_triples(pages, entities):
        edges[("entity:" + subj, pred, "entity:" + obj)] += 1
    return nodes, edges


def precision_recall(
    got: set[tuple[str, str, str]], expected: set[tuple[str, str, str]]
) -> tuple[float, float]:
    if not got:
        return (1.0 if not expected else 0.0), (1.0 if not expected else 0.0)
    tp = len(got & expected)
    return tp / len(got), tp / len(expected) if expected else 1.0
