"""Stages M+L: mention detection and entity linking (task-based map stages).

The analog of the reference's reference-scan + caller-resolution passes:

- mention detection = RefKind-filtered reference collection
  (``clangd_call_graph_builder.py:163-173``): dictionary surfaces are found
  with 0-indexed [start, end) spans, the ``Location`` analog
  (``clangd_index_yaml_parser.py:30-46``).
- anchored linking = Container-field caller resolution
  (``clangd_call_graph_builder.py:203-227``): the sentence's explicit subject.
- context linking = spatial-containment resolution
  (``clangd_call_graph_builder.py:124-201``): a pronoun subject resolves to
  the nearest preceding anchored subject in the same page — deterministic
  first-match-in-document-order, the parallel-safe replacement for the
  reference's sorted-span linear scan with ``break``.

One scan kernel, plus the spec it is tested against (the reference's
``--source-parser {clang,treesitter}`` pair, ``compilation_manager.py:113-123``,
is likewise one fast parser and one slow one):

- ``token``: the kernel every stage runs.  Aliases are token sequences; a
  first-token hash lookup prunes almost every position, then candidates are
  verified longest-first.  About 3x faster than the regex scan (CPython
  ``re`` alternation tries each branch per position).  It assumes dictionary
  surfaces are whole space-separated tokens with punctuation only at token
  edges (``_EDGE_PUNCT``), which holds for natural-language entity aliases.
  Punctuation inside a token hides an alias: in ``Alpha-Beta`` or
  ``Google's`` the regex spec finds ``Alpha`` / ``Google``, the token scan
  finds nothing.
- ``regex`` (``EntityLinker(lut, strategy="regex")``): one longest-first
  alternation with hard non-alnum boundaries, the reference semantics the
  oracle implements.  No stage selects it; the property tests pin the token
  scan to it on whole-token text.

The stage linker ``LinkScan`` is a callable class; ``link_scan_stage`` runs
it from a module-level task function that keeps a one-entry per-process
memo keyed by the broadcast alias object ref (``ray.put`` once on the
driver).  ``ray.get`` and the token index build therefore run once per
worker process per dictionary, mirroring the reference's per-process
``_worker_impl_instance`` initializer (T1, ``compilation_parser.py:161-187``)
without starting a dedicated actor process on every build.  Unresolvable
pronoun sentences become dead-letter rows (pred='__dead_letter__'), not
silent drops — SURVEY §7.5.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray
import ray.data

PRED_PHRASES = {
    "works for": "works_for",
    "is located in": "located_in",
    "is affiliated with": "affiliated_with",
    "links to": "links_to",
}
DEAD_LETTER = "__dead_letter__"
_SENTENCE_SPLIT = re.compile(r"(?<=\.) ")
_EDGE_PUNCT = ".,;:!?\"'()[]"


def compile_alias_regex(aliases) -> re.Pattern:
    """Single alternation over all surfaces, longest-first so the regex
    engine's leftmost-alternative preference yields longest-match semantics
    (e.g. 'The Entity0001' beats its substring 'Entity0001')."""
    ordered = sorted(aliases, key=len, reverse=True)
    return re.compile(
        r"(?<![A-Za-z0-9])(" + "|".join(re.escape(a) for a in ordered) + r")(?![A-Za-z0-9])"
    )


def build_token_index(aliases) -> dict[str, list[tuple[list[str], str]]]:
    """first token -> [(alias tokens, alias surface)], longest first."""
    idx: dict[str, list[tuple[list[str], str]]] = {}
    for a in aliases:
        toks = a.split(" ")
        idx.setdefault(toks[0], []).append((toks, a))
    for lst in idx.values():
        lst.sort(key=lambda t: len(t[0]), reverse=True)
    return idx


def _assemble(triples: list, mentions: list):
    """Row tuples -> (candidate table, mention table), one zip transpose
    per table (no per-field append loops)."""
    if triples:
        subj, pred, obj, eurl, s_arr, e_arr = zip(*triples)
    else:
        subj = pred = obj = eurl = s_arr = e_arr = ()
    cand_tbl = pa.table(
        {
            "subj": pa.array(subj, type=pa.string()),
            "pred": pa.array(pred, type=pa.string()),
            "obj": pa.array(obj, type=pa.string()),
            "evidence_url": pa.array(eurl, type=pa.string()),
            "evidence_start": pa.array(s_arr, type=pa.int32()),
            "evidence_end": pa.array(e_arr, type=pa.int32()),
        }
    )
    if mentions:
        m_url, m_eid, m_surf, m_s, m_e, m_anch = zip(*mentions)
    else:
        m_url = m_eid = m_surf = m_s = m_e = m_anch = ()
    ment_tbl = pa.table(
        {
            "url": pa.array(m_url, type=pa.string()),
            "entity_id": pa.array(m_eid, type=pa.string()),
            "surface": pa.array(m_surf, type=pa.string()),
            "start": pa.array(m_s, type=pa.int32()),
            "end": pa.array(m_e, type=pa.int32()),
            "anchored": pa.array(m_anch, type=pa.bool_()),
        }
    )
    return cand_tbl, ment_tbl


# Row type of the link scan: the tagged union of candidate-triple rows
# (kind "triple"), mention rows (kind "mention") and one row per scanned
# page (kind "page", url only), each row leaving the other kinds' columns
# null.
TAG_SCHEMA = pa.schema(
    [(c, pa.string()) for c in ("kind", "subj", "pred", "obj", "evidence_url")]
    + [(c, pa.string()) for c in ("url", "entity_id", "surface")]
    + [("start", pa.int32()), ("end", pa.int32()), ("anchored", pa.bool_())]
)


def _tag_union(cand: pa.Table, ment: pa.Table, urls) -> pa.Table:
    """Arrow-native tagged union of candidate, mention and page rows: concat
    with column promotion null-pads the missing sides — no ``to_pylist``
    round trip (the old ``pad`` helper was ~30% of the whole scan stage)."""
    c = cand.select(["subj", "pred", "obj", "evidence_url"]).append_column(
        "kind", pa.array(["triple"] * cand.num_rows, type=pa.string())
    )
    m = ment.append_column(
        "kind", pa.array(["mention"] * ment.num_rows, type=pa.string())
    )
    p = pa.table({"url": urls, "kind": pa.array(["page"] * len(urls), type=pa.string())})
    out = pa.concat_tables([c, m, p], promote_options="default")
    return out.select(TAG_SCHEMA.names)


class EntityLinker:
    """Link stage state: text -> (mentions, candidate triples) per batch.

    ``lut`` is the alias->entity_id dict; the Ray stages broadcast it once
    as an object ref (no shuffle join for the small side, SURVEY §7.4).
    ``strategy`` is ``"token"`` (the kernel) or ``"regex"`` (the spec).
    """

    def __init__(self, lut: dict, strategy: str = "token"):
        self.lut: dict[str, str] = lut
        self.strategy = strategy
        if strategy == "regex":
            self.pattern = compile_alias_regex(lut.keys())
        else:
            self.index = build_token_index(lut.keys())

    # -- scan: find dictionary surfaces with [start, end) char spans --

    def _scan_regex(self, sent: str, base: int):
        return [
            (m.start() + base, m.end() + base, m.group(1))
            for m in self.pattern.finditer(sent)
        ]

    def _scan_token(self, sent: str, base: int):
        toks = sent.split(" ")
        # char offset of each token within the sentence
        offs = []
        run = 0
        for t in toks:
            offs.append(run)
            run += len(t) + 1
        found = []
        index = self.index
        i = 0
        n = len(toks)
        while i < n:
            raw = toks[i]
            lead = 0
            while lead < len(raw) and raw[lead] in _EDGE_PUNCT:
                lead += 1
            core = raw[lead:].rstrip(_EDGE_PUNCT)
            cands = index.get(core)
            matched = False
            if cands:
                for alias_toks, alias in cands:
                    k = len(alias_toks)
                    if i + k > n:
                        continue
                    # a multi-token alias's FIRST token must carry no
                    # trailing punctuation: 'New, York' must not match
                    # 'New York' (the rstripped core is only a lookup key)
                    if k > 1 and raw[lead:] != alias_toks[0]:
                        continue
                    ok = True
                    # middle tokens must match exactly; last token may carry
                    # trailing punctuation (first may carry leading)
                    for j in range(1, k):
                        tj = toks[i + j]
                        cj = tj.rstrip(_EDGE_PUNCT) if j == k - 1 else tj
                        if cj != alias_toks[j]:
                            ok = False
                            break
                    if ok:
                        start = base + offs[i] + lead
                        found.append((start, start + len(alias), alias))
                        i += k
                        matched = True
                        break
            if not matched:
                i += 1
        return found

    def scan(self, sent: str, base: int):
        if self.strategy == "regex":
            return self._scan_regex(sent, base)
        return self._scan_token(sent, base)

    # -- per-document link pass: one scan, both outputs --

    def link_text(self, url: str, text: str):
        """Returns (mention_rows, triple_rows) for one document."""
        sentence_founds = []
        offset = 0
        for sent in _SENTENCE_SPLIT.split(text):
            sentence_founds.append((offset, self.scan(sent, offset)))
            offset += len(sent) + 1  # +1 for the split space
        return self.doc_relations(url, text, sentence_founds)

    def resolve(self, alias: str, doc_eids: set[str]) -> str:
        """Dictionary + context-scored entity resolution.

        Unambiguous surfaces map directly.  An ambiguous surface (a list of
        (entity_id, canonical) candidates) resolves to the first candidate
        (ascending entity_id) that is unambiguously mentioned elsewhere on
        the same page — the context score — falling back deterministically
        to the min-id candidate.  This is the web analog of the reference's
        Container-vs-spatial caller disambiguation (SURVEY §2.4 J3/J4)."""
        v = self.lut[alias]
        if isinstance(v, str):
            return v
        for eid, _canonical in v:
            if eid in doc_eids:
                return eid
        return v[0][0]

    def doc_relations(self, url: str, text: str, sentence_founds):
        """Shared relation logic given per-sentence mention spans.

        ``sentence_founds``: [(sent_start_char, [(start, end, alias), ...])]
        in document order.  Spans are absolute char offsets into ``text``.
        Sentences without mentions may be omitted (they affect nothing)."""
        # pass 1: page-context entity set from unambiguous mentions
        doc_eids = {
            v
            for _ss, found in sentence_founds
            for (_s, _e, a) in found
            if isinstance((v := self.lut[a]), str)
        }
        mentions = []  # (url, entity_id, surface, start, end, anchored)
        triples = []  # (subj, pred, obj, url, start, end)
        last_subject: str | None = None
        for ss, found in sentence_founds:
            anchored_idx = -1
            if len(found) == 2:
                # candidate anchored relation: "<A> <phrase> <B>."
                (s0, e0, a0), (s1, e1, a1) = found
                pred = PRED_PHRASES.get(text[e0:s1].strip())
                if pred is not None:
                    subj = self.resolve(a0, doc_eids)
                    obj = self.resolve(a1, doc_eids)
                    triples.append((subj, pred, obj, url, s0, e1))
                    last_subject = subj
                    anchored_idx = 0
            elif len(found) == 1 and text[ss : ss + 3] == "It ":
                s1, e1, a1 = found[0]
                pred = PRED_PHRASES.get(text[ss + 3 : s1].strip())
                if pred is not None:
                    obj = self.resolve(a1, doc_eids)
                    if last_subject is not None:
                        triples.append((last_subject, pred, obj, url, s1, e1))
                    else:
                        # dead-letter: unresolvable context (drop-vs-error)
                        triples.append((None, DEAD_LETTER, obj, url, s1, e1))
            for k, (s, e, a) in enumerate(found):
                mentions.append(
                    (url, self.resolve(a, doc_eids), a, s, e, k == anchored_idx)
                )
        return mentions, triples

    def _tables(self, batch: pa.Table):
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        all_m, all_t = [], []
        for url, text in zip(urls, texts):
            mentions, triples = self.link_text(url, text)
            all_t.extend(triples)
            all_m.extend(mentions)
        return _assemble(all_t, all_m)


class LinkScan(EntityLinker):
    """Combined one-pass output: tagged union of candidate-triple rows,
    mention rows and one row per scanned page (kind column).  One scan
    instead of two — the hot stage runs once — and with the page rows its
    output is all the graph stage needs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        cand, ment = self._tables(batch)
        return _tag_union(cand, ment, batch["url"])


# One-entry per-process linker memo: (alias ref hex, LinkScan).  Keyed by
# the ref's id, not the ref itself, so a worker never pins an old
# dictionary in the object store; a new ``ray.put`` (a new dictionary or a
# new build) is a new key, so a memo hit is never stale.
_LINKER_MEMO: tuple | None = None


def _link_batch(batch: pa.Table, alias_ref: ray.ObjectRef) -> pa.Table:
    global _LINKER_MEMO
    key = alias_ref.hex()
    if _LINKER_MEMO is None or _LINKER_MEMO[0] != key:
        _LINKER_MEMO = (key, LinkScan(ray.get(alias_ref)))
    return _LINKER_MEMO[1](batch)


def link_scan_stage(extracted: ray.data.Dataset, alias_ref) -> ray.data.Dataset:
    """extracted(url, text) -> tagged union of candidate-triple, mention and
    page rows (``TAG_SCHEMA``): a task-based ``map_batches`` of ``LinkScan``
    over whole blocks, with no concurrency or batch size of its own, so Ray
    fuses it with the read and extract stages before it and the graph
    stage's per-batch partials after it."""
    return extracted.select_columns(["url", "text"]).map_batches(
        _link_batch, fn_args=(alias_ref,), batch_format="pyarrow"
    )


def split_link_scan(tagged: ray.data.Dataset):
    """tagged -> (candidates, mentions) via vectorized filters."""
    candidates = tagged.map_batches(
        lambda t: t.filter(pa.compute.equal(t["kind"], "triple")).select(
            ["subj", "pred", "obj", "evidence_url"]
        ),
        batch_format="pyarrow",
    )
    mentions = tagged.map_batches(
        lambda t: t.filter(pa.compute.equal(t["kind"], "mention")).select(
            ["url", "entity_id", "surface", "start", "end", "anchored"]
        ),
        batch_format="pyarrow",
    )
    return candidates, mentions
