"""Split-file source (S1/S2 analogs) + documents-table adapter.

The pages schema is the BASELINE.json input_hint contract::

    pages(url: string, warc_ts: timestamp[us, UTC], html: binary,
          text: string, lang: string)

``read_pages`` is the one Parquet source of stage 1 (the full build, every
checkpointed partition and the checkpoint read-back) and of the
``documents`` table in ``documents_as_pages`` and the ``kg_*`` queries, and
``sources.warc.read_warc`` the same source over WARC files: a
``SplitSource`` plans one read task per split of whole files and streams
each Parquet file one row group at a time, in place of the reference's
manual doc-boundary chunking (``clangd_index_yaml_parser.py:310-372``).
Unlike ``ray.data.read_parquet`` it never samples (the driver only sums
the files' bytes, its size estimate), and its read tasks set no batch
size, so Ray fuses them with the ``batch_size=None`` maps after them: a
build's html never reaches the object store.  Ray's block builder joins a
task's row groups into blocks of at most the DataContext's
``target_max_block_size``.

``documents_as_pages`` adapts the driver testdata ``documents`` table into
the pages schema (FIXTURES.md "thin adapter" note) for smoke runs: html is
absent (extract passes text through), warc_ts is synthesized
deterministically from doc_id.
"""

from __future__ import annotations

import glob
import os
from collections.abc import Callable, Iterable

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..stages.shuffle import partition_count

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]
_EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z


def list_files(paths: str | list[str], pattern: str = "*") -> list[str]:
    """A file, a directory or a list of either -> the files; a directory
    contributes its files matching ``pattern``, sorted."""
    out: list[str] = []
    for path in [paths] if isinstance(paths, str) else paths:
        isdir = os.path.isdir(path)
        out += sorted(glob.glob(os.path.join(path, pattern))) if isdir else [path]
    return out


class SplitSource(Datasource):
    """``files`` cut into contiguous whole-file splits, one read task per
    split, which yields ``read_file(path)``'s tables file after file.

    Split count: ``shuffle.partition_count`` of the files' bytes (at least
    one per CPU, more when the bytes need them), at most one per file.
    The requested parallelism is ignored, and nothing is read on the
    driver but the file sizes."""

    def __init__(self, files: list[str], read_file: Callable[[str], Iterable[pa.Table]]):
        self._read_file = read_file
        sizes = [os.path.getsize(f) for f in files]
        self._bytes = sum(sizes)
        n = partition_count(len(files), self._bytes)
        cuts = [len(files) * i // n for i in range(n + 1)]
        self.splits = [(files[a:b], sum(sizes[a:b])) for a, b in zip(cuts, cuts[1:])]

    def get_name(self) -> str:
        return "Split"

    def estimate_inmemory_data_size(self) -> int:
        return self._bytes

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        read_file = self._read_file
        return [
            ReadTask(
                lambda split=split: (t for f in split for t in read_file(f)),
                BlockMetadata(
                    num_rows=None, size_bytes=size, exec_stats=None, input_files=split
                ),
            )
            for split, size in self.splits
        ]


def read_split(
    files: list[str], read_file: Callable[[str], Iterable[pa.Table]]
) -> ray.data.Dataset:
    """A Dataset over ``SplitSource(files, read_file)``: one read task
    per split, which Ray fuses with the maps after it."""
    if not files:
        raise ValueError("no input files to read")
    source = SplitSource(files, read_file)
    return ray.data.read_datasource(source, override_num_blocks=len(source.splits))


def row_groups(path: str, columns: list[str] | None = None) -> Iterable[pa.Table]:
    """One Parquet file, one row group per table, pruned to ``columns``."""
    with pq.ParquetFile(path) as f:
        for i in range(f.metadata.num_row_groups):
            yield f.read_row_group(i, columns=columns)


def read_pages(
    paths: str | list[str], *, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Column-pruned read of Parquet file(s) or directory(ies) of them
    through ``SplitSource``."""
    return read_split(
        list_files(paths, "*.parquet"), lambda path: row_groups(path, columns)
    )


def documents_as_pages(sf_dir: str) -> ray.data.Dataset:
    """documents(doc_id, text, lang, source, ...) -> pages schema."""
    docs = read_pages(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )

    def adapt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        return pa.table(
            {
                "url": pa.array(
                    [f"https://{s}.example.com/doc/{i}" for s, i in zip(srcs, ids)],
                    type=pa.string(),
                ),
                "warc_ts": pa.array(
                    [_EPOCH_US + i * 1_000_000 for i in ids],
                    type=pa.timestamp("us", tz="UTC"),
                ),
                # html omitted (docstring contract): extract passes rows
                # without an html column straight through
                "text": batch["text"],
                "lang": batch["lang"],
            }
        )

    return docs.map_batches(adapt, batch_format="pyarrow")
