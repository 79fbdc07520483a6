"""Aho-Corasick dictionary scanner — the Rust-speed linking kernel.

Strategy ``ac``: one ``polars`` ``str.find_many``/``str.extract_many`` call
per batch runs a Rust Aho-Corasick automaton over every document at once
(overlapping matches), and Python only touches the SPARSE hits (~a dozen
per page instead of ~600 tokens):

- boundary filter: a match must not have an ASCII-alphanumeric neighbor on
  either side — exactly the reference regex semantics
  (``(?<![A-Za-z0-9])…(?![A-Za-z0-9])``, linking.compile_alias_regex);
- leftmost-longest greedy: matches sorted by (start, -len), consumed left
  to right without overlap — exactly ``re.finditer`` over the longest-first
  alternation;
- sentence grouping: matches bucketed by the same ``(?<=\\.) `` split
  offsets the per-sentence scanners use, then fed to the shared
  ``EntityLinker.doc_relations`` logic.

Byte-vs-char caveat: ``find_many`` returns BYTE offsets.  For ASCII text
they equal char offsets; any non-ASCII document falls back to the regex
scanner per doc (checked with ``str.isascii``, a C-speed scan), so spans
stay char-exact everywhere.

Equivalence to the regex scanner is property-tested in
``tests/test_linking_ac.py`` (including punctuation the token scanner's
whole-token assumption does not cover).
"""

from __future__ import annotations

import string
from bisect import bisect_right

import polars as pl
import pyarrow as pa

from .linking import _SENTENCE_SPLIT, EntityLinker, _assemble, _tag_union

_WORD = frozenset(string.ascii_letters + string.digits)


class AcLinker(EntityLinker):
    """EntityLinker with a batch-level Aho-Corasick scan
    (candidate-triples output)."""

    def __init__(self, lut: dict, strategy: str = "ac"):
        super().__init__(lut, strategy="regex")  # exact fallback scanner
        self.strategy = "ac"
        # List-typed (imploded) patterns: the flat-series form is deprecated
        self.patterns = pl.Series(list(lut.keys()), dtype=pl.String).implode()

    # -- per-doc: overlapping AC hits -> regex-equivalent sentence founds --

    def _sentence_founds(self, text: str, starts, surfs):
        n = len(text)
        # sentence k covers [sent_starts[k], sent_starts[k+1] - 1): the
        # per-sentence scanners see SPLIT substrings, so a hit crossing a
        # split point (an alias containing '. ') can never match there — a
        # whole-text AC hit that spans one must be rejected BEFORE the
        # greedy pass, or it would both diverge from the regex semantics
        # and wrongly advance the cursor past legitimate in-sentence hits.
        sent_starts = [0] + [m.end() for m in _SENTENCE_SPLIT.finditer(text)]
        hits = []
        for s, surf in zip(starts, surfs):
            e = s + len(surf)
            if s > 0 and text[s - 1] in _WORD:
                continue
            if e < n and text[e] in _WORD:
                continue
            k = bisect_right(sent_starts, s) - 1
            sent_end = sent_starts[k + 1] - 1 if k + 1 < len(sent_starts) else n
            if e > sent_end:
                continue
            hits.append((s, -len(surf), surf))
        hits.sort()
        found = []
        cursor = 0
        for s, neg_len, surf in hits:
            if s >= cursor:
                e = s - neg_len
                found.append((s, e, surf))
                cursor = e
        by_sent: dict[int, list] = {}
        for s, e, surf in found:
            ss = sent_starts[bisect_right(sent_starts, s) - 1]
            by_sent.setdefault(ss, []).append((s, e, surf))
        return sorted(by_sent.items())

    def _scan_texts(self, texts: list[str]):
        """One AC pass over the whole batch -> per-doc sentence founds."""
        col = pl.Series("t", texts, dtype=pl.String)
        all_starts = col.str.find_many(self.patterns, overlapping=True).to_list()
        all_surfs = col.str.extract_many(self.patterns, overlapping=True).to_list()
        out = []
        for text, starts, surfs in zip(texts, all_starts, all_surfs):
            if text.isascii():
                out.append(self._sentence_founds(text, starts, surfs))
            else:
                # byte offsets != char offsets: exact per-sentence regex scan
                founds = []
                offset = 0
                for sent in _SENTENCE_SPLIT.split(text):
                    founds.append((offset, self._scan_regex(sent, offset)))
                    offset += len(sent) + 1
                out.append(founds)
        return out

    def _tables(self, batch: pa.Table, want_mentions: bool = True):
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        all_m, all_t = [], []
        for url, text, founds in zip(urls, texts, self._scan_texts(texts)):
            mentions, triples = self.doc_relations(url, text, founds, want_mentions)
            all_t.extend(triples)
            all_m.extend(mentions)
        return _assemble(all_t, all_m)


class AcMentionScanner(AcLinker):
    def __call__(self, batch: pa.Table) -> pa.Table:
        _, ment_tbl = self._tables(batch)
        return ment_tbl


class AcLinkScan(AcLinker):
    def __call__(self, batch: pa.Table) -> pa.Table:
        cand, ment = self._tables(batch)
        return _tag_union(cand, ment)


class AcFusedExtractLinkPartial(AcLinker):
    def __call__(self, batch: pa.Table) -> pa.Table:
        from .extract import extract_batch
        from .linking import DEAD_LETTER

        if "html" in batch.column_names:
            batch = extract_batch(batch)
        cand, _ = self._tables(batch, want_mentions=False)
        cand = cand.filter(pa.compute.not_equal(cand["pred"], DEAD_LETTER))
        out = cand.select(["subj", "pred", "obj", "evidence_url"])
        return (
            out.group_by(["subj", "pred", "obj"])
            .aggregate([("evidence_url", "min"), ([], "count_all")])
            .rename_columns(["subj", "pred", "obj", "evidence_url", "n"])
        )
