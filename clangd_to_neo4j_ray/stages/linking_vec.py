"""Vectorized dictionary scanner — the high-throughput linking kernel.

Replaces the per-token Python loop of ``EntityLinker._scan_token`` with
Arrow/numpy bulk operations over the whole batch:

- one Arrow ``split_pattern`` + flatten over every document at once;
- edge-punctuation trims, char offsets, and sentence ids as vectorized
  kernels;
- dictionary membership as ``pc.is_in`` over per-length n-gram key sets
  (1-, 2-, 3-token surfaces joined with spaces), sentence-bounded;
- only the SPARSE survivors (actual dictionary hits, a few % of tokens) are
  touched by Python: a greedy longest-match/no-overlap resolution per doc
  and the shared per-sentence relation logic (EntityLinker.doc_relations).

This cuts per-token Python object churn ~an order of magnitude, which is
what lifts the single-node memory-bandwidth ceiling observed in the scaling
runs (BASELINE.md).  Semantics are proven identical to the token scanner by
``tests/test_linking_vec.py`` (planted fixture + property tests).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .linking import _EDGE_PUNCT, EntityLinker, _assemble, _tag_union


def _build_ngram_sets(aliases):
    """aliases grouped by token count -> {k: pa.Array of space-joined keys}."""
    by_k: dict[int, list[str]] = {}
    for a in aliases:
        by_k.setdefault(len(a.split(" ")), []).append(a)
    return {k: pa.array(sorted(v), type=pa.string()) for k, v in by_k.items()}


def _shift_eq(arr: np.ndarray, j: int) -> np.ndarray:
    """Mask at i: arr[i + j] == arr[i] (False where i + j out of range)."""
    out = np.zeros(len(arr), dtype=bool)
    if j < len(arr):
        out[: len(arr) - j] = arr[j:] == arr[:-j]
    return out


class VectorLinker(EntityLinker):
    """EntityLinker with a batch-vectorized scan (candidate-triples output)."""

    def __init__(self, lut: dict, strategy: str = "vector"):
        super().__init__(lut, strategy="token")  # python paths still usable
        self.strategy = "vector"
        self.ngram_sets = _build_ngram_sets(lut.keys())

    def scan_batch(self, batch: pa.Table):
        """batch(url, text) -> (urls, texts, per-doc [(sent_start, found)])."""
        urls = batch["url"].to_pylist()
        texts_col = batch["text"]
        texts = texts_col.to_pylist()
        toks = pc.split_pattern(texts_col, pattern=" ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        raw = pc.list_flatten(toks)
        if isinstance(raw, pa.ChunkedArray):
            raw = raw.combine_chunks()
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        n = len(raw)
        if n == 0:
            return urls, texts, [[] for _ in urls]

        lens = pc.utf8_length(raw).to_numpy(zero_copy_only=False).astype(np.int64)
        # char offset of each token within its document
        global_off = np.concatenate(([0], np.cumsum(lens + 1)[:-1]))
        is_doc_first = np.concatenate(([True], parents[1:] != parents[:-1]))
        doc_first_idx = np.nonzero(is_doc_first)[0]
        doc_base = global_off[doc_first_idx]
        # map each token to its doc's base offset
        base_per_tok = np.repeat(doc_base, np.diff(np.append(doc_first_idx, n)))
        tok_off = global_off - base_per_tok

        # edge trims
        ltrimmed = pc.utf8_ltrim(raw, characters=_EDGE_PUNCT)
        lead = lens - pc.utf8_length(ltrimmed).to_numpy(zero_copy_only=False)
        core = pc.utf8_rtrim(ltrimmed, characters=_EDGE_PUNCT)
        rstripped = pc.utf8_rtrim(raw, characters=_EDGE_PUNCT)

        # sentence ids, globally unique: a new sentence starts at every doc
        # start and after every token whose raw form ends with '.'
        # (the "(?<=\.) " split semantics)
        ends = pc.ends_with(raw, pattern=".").to_numpy(zero_copy_only=False)
        new_sent = np.concatenate(([False], ends[:-1]))
        new_sent |= np.concatenate(([False], parents[1:] != parents[:-1]))
        sent_id = np.cumsum(new_sent)  # first token -> 0

        # first-token char offset of every sentence
        sent_first = np.nonzero(np.concatenate(([True], new_sent[1:])))[0]
        sent_start_of = {int(sent_id[i]): int(tok_off[i]) for i in sent_first}

        # candidate masks per n-gram length (sentence-bounded)
        cand: list[tuple[int, np.ndarray, pa.Array]] = []
        for k, keys in self.ngram_sets.items():
            if k == 1:
                key_arr = core
                valid = np.ones(n, dtype=bool)
            else:
                # first token of a k>1 alias: leading trim only — a trailing
                # punctuation mark breaks the phrase ('New, York' != 'New York')
                parts = [ltrimmed]
                valid = np.ones(n, dtype=bool)
                for j in range(1, k):
                    valid &= _shift_eq(sent_id, j)  # same sentence => same doc
                    src = rstripped if j == k - 1 else raw
                    shifted = src.slice(j)
                    pad = pa.array([""] * j, type=pa.string())
                    parts.append(pa.concat_arrays([shifted, pad]))
                key_arr = pc.binary_join_element_wise(*parts, " ")
            hits = pc.is_in(key_arr, value_set=keys).to_numpy(zero_copy_only=False)
            hits &= valid
            cand.append((k, hits, key_arr))

        # sparse alias lookup per hit position
        alias_at: dict[int, dict[int, str]] = {}
        any_hit = np.zeros(n, dtype=bool)
        for k, hits, key_arr in cand:
            idx = np.nonzero(hits)[0]
            any_hit |= hits
            alias_at[k] = (
                dict(zip(idx.tolist(), key_arr.take(pa.array(idx)).to_pylist()))
                if len(idx)
                else {}
            )
        pos = np.nonzero(any_hit)[0].tolist()
        if not pos:
            return urls, texts, [[] for _ in urls]

        ks_desc = sorted(self.ngram_sets, reverse=True)
        per_doc: list[list] = [[] for _ in urls]
        next_free = -1
        cur_parent = -1
        for i in pos:
            p = int(parents[i])
            if p != cur_parent:
                cur_parent = p
                next_free = -1
            if i < next_free:
                continue
            chosen = None
            for k in ks_desc:
                if i in alias_at[k]:
                    chosen = (k, alias_at[k][i])
                    break
            if chosen is None:
                continue
            k, alias = chosen
            start = int(tok_off[i] + lead[i])
            entry = (start, start + len(alias), alias)
            sid = int(sent_id[i])
            doc_list = per_doc[p]
            if doc_list and doc_list[-1][0] == sid:
                doc_list[-1][2].append(entry)
            else:
                doc_list.append([sid, sent_start_of[sid], [entry]])
            next_free = i + k

        out = [
            [(ss, founds) for _sid, ss, founds in doc_list] for doc_list in per_doc
        ]
        return urls, texts, out

    def _tables(self, batch: pa.Table, want_mentions: bool = True):
        urls, texts, per_doc = self.scan_batch(batch)
        all_m, all_t = [], []
        for url, text, sentence_founds in zip(urls, texts, per_doc):
            mentions, triples = self.doc_relations(
                url, text, sentence_founds, want_mentions
            )
            all_t.extend(triples)
            all_m.extend(mentions)
        return _assemble(all_t, all_m)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cand_tbl, _ = self._tables(batch, want_mentions=False)
        return cand_tbl


class VectorLinkScan(VectorLinker):
    """Vectorized combined output (kind-tagged candidates + mentions)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        cand, ment = self._tables(batch)
        return _tag_union(cand, ment)


class VectorMentionScanner(VectorLinker):
    """Vectorized mention-rows output (MentionScanner analog)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        _, ment = self._tables(batch)
        return ment


class VectorFusedExtractLinkPartial(VectorLinker):
    """Vectorized fused extract+link+partial-dedup (FusedExtractLinkPartial
    analog — same output contract, batch-vectorized scan)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .extract import extract_batch
        from .linking import DEAD_LETTER

        if "html" in batch.column_names:
            batch = extract_batch(batch)
        cand, _ = self._tables(batch, want_mentions=False)
        cand = cand.filter(pc.not_equal(cand["pred"], DEAD_LETTER))
        out = cand.select(["subj", "pred", "obj", "evidence_url"])
        return (
            out.group_by(["subj", "pred", "obj"])
            .aggregate([("evidence_url", "min"), ([], "count_all")])
            .rename_columns(["subj", "pred", "obj", "evidence_url", "n"])
        )
