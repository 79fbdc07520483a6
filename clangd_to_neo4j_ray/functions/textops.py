"""Vectorized text primitives shared by the documents-KG and text-analysis stages.

Tokenization is single-space split, chosen to be exactly reproducible in the
DuckDB oracle (``string_split(text, ' ')``).  All explode operations are
Arrow/numpy-vectorized — no per-row Python loops in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["tokenize_column", "explode_tokens", "prefixed"]


def prefixed(col: pa.Array | pa.ChunkedArray, prefix: str) -> pa.Array:
    """``prefix || value`` per element, Arrow-vectorized (scalar broadcast)
    — replaces the ``[f"{p}{v}" for v in col.to_pylist()]`` node/edge-id
    builders (measured ~10-25x per kernel).  Non-string columns are cast
    to string first (matching f-string formatting for ints)."""
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    out = pc.binary_join_element_wise(pa.scalar(prefix), col, "")
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def tokenize_column(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """text column -> list<string> of tokens (split on single space)."""
    arr = pc.split_pattern(text, pattern=" ")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def explode_tokens(batch: pa.Table, text_col: str = "text", keep: list[str] | None = None):
    """Explode a text column into one row per token, fully vectorized.

    Returns ``(token_array, position_array, parent_indices)`` where
    ``parent_indices[i]`` is the row in ``batch`` that token ``i`` came from
    and ``position_array`` is the 0-based token position within its document
    (the ``Location`` analog, ``clangd_index_yaml_parser.py:30-46``; 0-indexed
    like the reference, ``docs/clangd-index-yaml-spec.txt:14-15``).
    """
    toks = tokenize_column(batch[text_col])
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    # 0-based position within each list, vectorized.
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    positions = np.arange(len(flat), dtype=np.int64) - offsets
    return flat, positions, parents.to_numpy(zero_copy_only=False).astype(np.int64)
