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

- ``LinkScan``: the columnar kernel every stage runs, one pass per Arrow
  block over the text column's UTF-8 buffer with numpy and Arrow compute,
  with no Python per document.  The tokens are the maximal ASCII-alnum
  runs (never across a row); every run and every gap between two runs of
  one sentence gets its id from one ``pc.index_in`` against the aliases'
  runs and separators; a walk down the alias trie, one ``searchsorted``
  over sorted int64 edge keys per token, finds the longest alias at each
  run; greedy leftmost-longest selection drops overlaps (Python loops only
  over overlapping multi-run matches); ambiguous aliases resolve against
  the row's unambiguous entity ids; the text between a sentence's mentions
  is trimmed and looked up with ``pc.index_in``, and a pronoun's subject
  is found with ``searchsorted``.  A byte offset becomes a char offset by
  subtracting the UTF-8 continuation bytes before it (a ``searchsorted``
  over their positions, empty for ASCII text).  An alias matches whole
  runs, so every dictionary surface must start and end with an ASCII
  letter or digit: ``LinkScan`` refuses any other (``C++``, ``.NET``).
- ``EntityLinker``: the spec, one document at a time (``link_text``): one
  longest-first alternation with hard non-alnum boundaries, the reference
  semantics the oracle implements.  No stage runs it; the tests pin
  ``LinkScan`` to it row for row, char offsets included.

The stage linker ``LinkScan`` is a callable class; ``link_scan_stage`` runs
it from a module-level task function that keeps a one-entry per-process
memo keyed by the broadcast alias object ref (``ray.put`` once on the
driver).  ``ray.get`` and the alias trie build therefore run once per
worker process per dictionary, mirroring the reference's per-process
``_worker_impl_instance`` initializer (T1, ``compilation_parser.py:161-187``)
without starting a dedicated actor process on every build.  Unresolvable
pronoun sentences become dead-letter rows (pred='__dead_letter__'), not
silent drops — SURVEY §7.5.
"""

from __future__ import annotations

import re
import string

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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
_ALNUM_RUN = re.compile(r"([A-Za-z0-9]+)")
_IS_ALNUM = np.zeros(256, dtype=bool)
_IS_ALNUM[np.frombuffer((string.ascii_letters + string.digits).encode(), np.uint8)] = True
# what ``str.strip()`` removes: the spec trims the text between mentions
# with it
_PY_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


# Row type of the link scan: the tagged union of candidate-triple rows
# (kind "triple"), mention rows (kind "mention") and one row per scanned
# page (kind "page", url only), each row leaving the other kinds' columns
# null.
TAG_SCHEMA = pa.schema(
    [(c, pa.string()) for c in ("kind", "subj", "pred", "obj", "evidence_url")]
    + [(c, pa.string()) for c in ("url", "entity_id", "surface")]
    + [("start", pa.int32()), ("end", pa.int32()), ("anchored", pa.bool_())]
)


class EntityLinker:
    """The link spec: text -> (mentions, candidate triples), one document
    at a time, with the longest-first alias regex.

    ``lut`` is the alias->entity_id dict; the Ray stages broadcast it once
    as an object ref (no shuffle join for the small side, SURVEY §7.4).
    """

    def __init__(self, lut: dict):
        self.lut: dict[str, str] = lut
        # one alternation over all surfaces, longest-first so the regex
        # engine's leftmost-alternative preference yields longest-match
        # semantics ('The Entity0001' beats its substring 'Entity0001')
        ordered = sorted(lut, key=len, reverse=True)
        self.pattern = re.compile(
            r"(?<![A-Za-z0-9])(" + "|".join(map(re.escape, ordered)) + r")(?![A-Za-z0-9])"
        )

    def scan(self, sent: str, base: int):
        """Dictionary surfaces in ``sent`` as [start, end) char spans."""
        return [
            (m.start() + base, m.end() + base, m.group(1))
            for m in self.pattern.finditer(sent)
        ]

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

    def link_text(self, url: str, text: str):
        """Returns (mention_rows, triple_rows) for one document: mention
        rows (url, entity_id, surface, start, end, anchored) and triple
        rows (subj, pred, obj, url, start, end), char offsets into
        ``text``."""
        sentence_founds = []  # (sentence start, [(start, end, alias), ...])
        offset = 0
        for sent in _SENTENCE_SPLIT.split(text):
            sentence_founds.append((offset, self.scan(sent, offset)))
            offset += len(sent) + 1  # +1 for the split space
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


def _utf8(column) -> tuple[np.ndarray, np.ndarray]:
    """A string or large_string column -> (row offsets, UTF-8 bytes): row
    ``r`` is ``data[off[r]:off[r + 1]]``; a null row reads as empty."""
    arr = column.combine_chunks() if isinstance(column, pa.ChunkedArray) else column
    if len(arr) == 0:
        return np.zeros(1, np.int64), np.zeros(0, np.uint8)
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _validity, offsets, values = arr.buffers()
    off = np.frombuffer(offsets, width)[arr.offset : arr.offset + len(arr) + 1]
    off = off.astype(np.int64)
    data = np.frombuffer(values, np.uint8)[off[0] : off[-1]]
    return off - off[0], data


def _strings(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> pa.Array:
    """The large_string array of the byte spans ``data[lo[i]:hi[i]]``."""
    lens = hi - lo
    offs = np.zeros(len(lo) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    gather = np.arange(offs[-1]) + np.repeat(lo - offs[:-1], lens)
    return pa.LargeStringArray.from_buffers(
        len(lo), pa.py_buffer(offs), pa.py_buffer(data[gather])
    )


class LinkScan:
    """The link stage kernel: an Arrow batch (url, text, ...) ->
    ``TAG_SCHEMA`` rows, the candidate triples and mentions
    ``EntityLinker(lut).link_text`` gives for each row plus one page row
    per row.  ``lut`` maps each alias to an entity id, or to a list of
    (entity_id, canonical name) candidates for an ambiguous alias."""

    def __init__(self, lut: dict):
        bad = []
        words: dict[str, int] = {}  # alias runs and separators -> token id
        eids: dict[str, int] = {}
        seqs, alias_eid, cand_eid, cand_off = [], [], [], [0]
        for alias, v in lut.items():
            toks = _ALNUM_RUN.split(alias)  # '', run, sep, run, ..., run, ''
            if len(toks) == 1 or toks[0] or toks[-1]:
                bad.append(alias)
                continue
            seqs.append([words.setdefault(t, len(words)) for t in toks[1:-1]])
            if isinstance(v, str):
                alias_eid.append(eids.setdefault(v, len(eids)))
            else:
                alias_eid.append(-1)
                cand_eid += [eids.setdefault(e, len(eids)) for e, _canonical in v]
            cand_off.append(len(cand_eid))
        if bad:
            raise ValueError(
                "alias surfaces must start and end with an ASCII letter or "
                f"digit: {sorted(bad)!r}"
            )
        # the alias trie: edge key (parent node + 1) * n_words + token, the
        # root being node -1; ``_first`` maps a token id + 1 to its root edge
        n_words = self._n_words = len(words)
        trie: dict[int, int] = {}
        ends = []
        for seq in seqs:
            node = -1
            for t in seq:
                node = trie.setdefault((node + 1) * n_words + t, len(trie))
            ends.append(node)
        self._terminal = np.full(len(trie), -1)
        self._terminal[ends] = np.arange(len(seqs))
        self._edge_key = np.array(sorted(trie), np.int64)
        self._edge_node = np.array([trie[k] for k in self._edge_key.tolist()], np.int64)
        root = self._edge_key < n_words
        self._first = np.full(n_words + 1, -1)
        self._first[self._edge_key[root] + 1] = self._edge_node[root]
        self._depth = max((len(s) + 1) // 2 for s in seqs) if seqs else 1
        self._words = pa.array(list(words), type=pa.large_string())
        self._surface = pa.array(list(lut), type=pa.string())
        self._alias_eid = np.array(alias_eid, np.int64)
        self._cand_eid = np.array(cand_eid, np.int64)
        self._cand_off = np.array(cand_off, np.int64)
        self._eids = pa.array(list(eids), type=pa.string())
        self._phrases = pa.array(list(PRED_PHRASES), type=pa.large_string())
        self._preds = pa.array([*PRED_PHRASES.values(), DEAD_LETTER], type=pa.string())
        self._kinds = pa.array(["triple", "mention", "page"], type=pa.string())

    def _longest(self, tok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token ids (run i at ``2i``, the gap after it at ``2i + 1``, -1
        for no alias token) -> (alias id, runs) of the longest alias at
        each run, -1 / 0 where none starts."""
        n_runs = len(tok) // 2
        alias = np.full(n_runs, -1, np.int32)
        length = np.zeros(n_runs, np.int32)
        node = self._first[tok[0::2] + 1]
        run = np.flatnonzero(node >= 0)
        node = node[run]
        for j in range(2 * self._depth - 1):
            if j:
                t = tok[2 * run + j]
                key = (node + 1) * self._n_words + t
                pos = np.searchsorted(self._edge_key, key).clip(max=len(self._edge_key) - 1)
                live = (t >= 0) & (self._edge_key[pos] == key)
                run, node = run[live], self._edge_node[pos[live]]
            if j % 2 == 0:  # the walk has just read a run: a whole alias?
                hit = self._terminal[node]
                ok = hit >= 0
                alias[run[ok]] = hit[ok]
                length[run[ok]] = j // 2 + 1
        return alias, length

    def _resolve(self, m_alias: np.ndarray, m_row: np.ndarray) -> np.ndarray:
        """Entity id of each mention: an ambiguous alias takes its first
        candidate mentioned unambiguously in the same row, else its first."""
        eid = self._alias_eid[m_alias]
        amb = np.flatnonzero(eid < 0)
        if len(amb):
            n_eids = len(self._eids)
            known = np.unique(m_row[eid >= 0] * n_eids + eid[eid >= 0])
            lo = self._cand_off[m_alias[amb]]
            cnt = self._cand_off[m_alias[amb] + 1] - lo
            first = np.cumsum(cnt) - cnt
            group = np.repeat(np.arange(len(amb)), cnt)
            cand = self._cand_eid[lo[group] + np.arange(len(group)) - first[group]]
            hit = np.isin(m_row[amb][group] * n_eids + cand, known)
            pick = np.minimum.reduceat(np.where(hit, np.arange(len(group)), len(group)), first)
            eid[amb] = cand[np.where(pick < len(group), pick, first)]
        return eid

    def _mentions(self, off: np.ndarray, data: np.ndarray):
        """-> (alias, row, sentence, byte start, byte end) of each mention,
        in document order, and the byte offset each sentence starts at."""
        size = len(data)
        rows = np.unique(off[:-1][off[:-1] < size])  # non-empty rows' starts

        # tokens: maximal ASCII-alnum runs, cut at row starts; the alnum
        # flag changes at each run's first byte and after its last, in turn
        alnum = _IS_ALNUM[data]
        edge = np.flatnonzero(np.diff(alnum, prepend=False, append=False))
        start, end = edge[0::2], edge[1::2]
        later = rows[1:]
        inner = later[alnum[later] & alnum[later - 1]]  # row starts inside a run
        at = np.searchsorted(start, inner)
        start, end = np.insert(start, at, inner), np.insert(end, at - 1, inner)
        n_runs = len(start)

        # sentences start at a row start, and after a space that follows
        # "." in the same row (a row's leading space starts its sentence)
        dot = np.flatnonzero(data[:-1] == ord("."))
        space = dot[data[dot + 1] == ord(" ")] + 1
        sent_start = np.union1d(rows, space + ~np.isin(space, rows))
        run_sent = np.searchsorted(sent_start, start, side="right") - 1

        # one id per run and per gap; a gap that ends a sentence joins none
        bounds = np.empty(2 * n_runs + 2, np.int64)
        bounds[0], bounds[-1] = 0, size
        bounds[1:-1:2], bounds[2:-1:2] = start, end
        pieces = pa.LargeStringArray.from_buffers(
            2 * n_runs + 1, pa.py_buffer(bounds), pa.py_buffer(data)
        )
        ids = pc.fill_null(pc.index_in(pieces, value_set=self._words), -1)
        tok = ids.to_numpy()[1:].copy()
        del bounds, pieces, ids  # two entries per run: free them before the trie walk
        brk = np.ones(n_runs, dtype=bool)
        brk[:-1] = run_sent[1:] != run_sent[:-1]
        tok[1::2][brk] = -1
        alias, length = self._longest(tok)

        # greedy leftmost-longest: a kept multi-run match covers the runs
        # after its first, and only a multi-run match can overlap a later one
        cand = np.flatnonzero(alias >= 0)
        multi = cand[length[cand] > 1]
        stop = multi + length[multi]
        if len(multi) > 1 and (multi[1:] < np.maximum.accumulate(stop)[:-1]).any():
            keep, reach = np.zeros(len(multi), dtype=bool), 0
            for i, (s, e) in enumerate(zip(multi.tolist(), stop.tolist())):
                if s >= reach:
                    keep[i], reach = True, e
            multi, stop = multi[keep], stop[keep]
        cover = np.zeros(n_runs + 1, np.int64)
        cover[multi + 1] += 1
        cover[stop] -= 1
        m = cand[np.cumsum(cover[:-1])[cand] == 0]
        row = np.searchsorted(off, start[m], side="right") - 1
        return alias[m], row, run_sent[m], start[m], end[m + length[m] - 1], sent_start

    def __call__(self, batch: pa.Table) -> pa.Table:
        off, data = _utf8(batch["text"])
        m_alias, m_row, m_sent, lo, hi, sent_start = self._mentions(off, data)
        eid = self._resolve(m_alias, m_row)

        # relations: a sentence with exactly two mentions, or with one
        # mention that starts "It "; the text between names the predicate
        _sent, at, count = np.unique(m_sent, return_index=True, return_counts=True)
        pair, one = at[count == 2], at[count == 1]
        ss = sent_start[m_sent[one]]
        fits = ss + 3 <= off[m_row[one] + 1]
        one, ss = one[fits], ss[fits]
        it = (data[ss] == ord("I")) & (data[ss + 1] == ord("t")) & (data[ss + 2] == ord(" "))
        one, ss = one[it], ss[it]
        between = _strings(
            data,
            np.concatenate([hi[pair], ss + 3]),
            np.concatenate([lo[pair + 1], np.maximum(lo[one], ss + 3)]),
        )
        between = pc.utf8_trim(between, characters=_PY_WHITESPACE)
        phrase = pc.fill_null(pc.index_in(between, value_set=self._phrases), -1).to_numpy()
        a_pred, p_pred = phrase[: len(pair)], phrase[len(pair) :]
        anch, a_pred = pair[a_pred >= 0], a_pred[a_pred >= 0]
        pron, p_pred = one[p_pred >= 0], p_pred[p_pred >= 0]
        # a pronoun's subject: the last anchored subject earlier in its row
        j = np.searchsorted(m_sent[anch], m_sent[pron]) - 1
        found = np.append(m_row[anch], -1)[j] == m_row[pron]
        p_subj = np.where(found, np.append(eid[anch], -1)[j], -1)
        order = np.argsort(np.concatenate([m_sent[anch], m_sent[pron]]), kind="stable")
        t_subj = np.concatenate([eid[anch], p_subj])[order]
        t_pred = np.concatenate([a_pred, np.where(found, p_pred, len(PRED_PHRASES))])[order]
        t_obj = np.concatenate([eid[anch + 1], eid[pron]])[order]
        t_row = np.concatenate([m_row[anch], m_row[pron]])[order]
        anchored = np.zeros(len(m_alias), dtype=bool)
        anchored[anch] = True

        # char offsets: a byte offset less the UTF-8 continuation bytes
        # before it
        cont = np.flatnonzero((data & 0xC0) == 0x80)
        lo, hi, base = (b - np.searchsorted(cont, b) for b in (lo, hi, off[m_row]))

        url = batch["url"]
        url = (url.combine_chunks() if isinstance(url, pa.ChunkedArray) else url).cast(pa.string())
        sizes = (len(t_row), len(m_alias), len(url))
        each = np.arange(len(m_alias))

        def col(values, *parts):
            """``values.take`` of each kind's indices, null for a kind
            without a part and for a negative index."""
            i = np.concatenate([np.full(n, -1) if p is None else p for p, n in zip(parts, sizes)])
            return values.take(pa.array(i, mask=i < 0))

        return pa.Table.from_arrays(
            [
                self._kinds.take(np.repeat([0, 1, 2], sizes)),
                col(self._eids, t_subj, None, None),
                col(self._preds, t_pred, None, None),
                col(self._eids, t_obj, None, None),
                col(url, t_row, None, None),
                col(url, None, m_row, np.arange(len(url))),
                col(self._eids, None, eid, None),
                col(self._surface, None, m_alias, None),
                col(pa.array(lo - base, pa.int32()), None, each, None),
                col(pa.array(hi - base, pa.int32()), None, each, None),
                col(pa.array(anchored), None, each, None),
            ],
            schema=TAG_SCHEMA,
        )


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
