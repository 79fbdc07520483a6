"""Ray Data execution-context tuning.

Central place for the DataContext knobs so every pipeline/bench/test uses the
same execution profile.  Mirrors the reference's centralized CLI parameter
groups (``input_params.py:11-70``) — batch sizes and worker counts live in one
module instead of being scattered per stage.
"""

from __future__ import annotations

import os

import ray


def _pin_fsspec_http_stub() -> None:
    """Resolve Ray's per-path ``fsspec.implementations.http`` probe once.

    Ray Data re-attempts ``from fsspec.implementations.http import
    HTTPFileSystem`` on EVERY path resolution (read and write path
    resolution, ray/data/datasource/path_util.py) and catches only
    ``ModuleNotFoundError``.  Where the import fails (no aiohttp), every
    read and write pays that failed import again, and two threads
    resolving paths at once race on the partially-initialized module,
    surfacing as ``ImportError: cannot import name 'HTTPFileSystem'`` (a
    plain ImportError, which escapes Ray's except).  When the real module
    is unimportable, install a benign stub module ONCE at library load:
    the stub's sentinel class makes Ray's ``isinstance(fs,
    HTTPFileSystem)`` check deterministically False — exactly the
    behavior of the ModuleNotFoundError branch — and the cached module
    ends the per-call import attempts entirely."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return  # real module works; nothing to do
    except ImportError:
        pass
    try:
        import sys
        import types

        import fsspec.implementations as _impl

        mod = types.ModuleType("fsspec.implementations.http")

        class _StubHTTPFileSystem:
            """Import-race stub (ADVICE r4: distinctly named so any other
            in-process fsspec consumer that resolves it fails LOUDLY with
            this message, not a confusing TypeError): Ray only needs the
            attribute for an ``isinstance`` check, which is always False;
            instantiating it means real HTTP filesystem access was wanted."""

            def __init__(self, *a, **kw):
                raise ImportError(
                    "fsspec.implementations.http is stubbed by "
                    "clangd_to_neo4j_ray.context (aiohttp is not installed; "
                    "the real HTTPFileSystem cannot be imported in this "
                    "environment). Install aiohttp for real HTTP filesystem "
                    "access."
                )

        mod.HTTPFileSystem = _StubHTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
        _impl.http = mod
    except Exception:
        pass  # no fsspec at all: Ray's ModuleNotFoundError branch applies


_pin_fsspec_http_stub()


def tune_data_context() -> None:
    """Apply standard DataContext settings.

    128 MiB target blocks; no progress bars.  ``preserve_order=False`` lets
    the streaming executor consume blocks in completion order (the analog
    of the reference's ``as_completed`` consumption,
    ``compilation_parser.py:222``) — all our canonicalization semantics are
    order-independent by design (SURVEY §7.5), so order preservation is
    never required for correctness.  The shuffle strategy stays Ray's
    sort-based default: every build exchange is bucketed on an int64
    ``__bucket`` column (stages/shuffle.py), which the sort path
    range-partitions with vectorized pyarrow kernels, while this Ray
    version's hash shuffle hashes rows in a Python loop.
    """
    ctx = ray.data.DataContext.get_current()
    ctx.target_max_block_size = 128 * 1024 * 1024
    ctx.execution_options.preserve_order = False
    ctx.enable_progress_bars = False
    try:
        ctx.execution_options.verbose_progress = False
    except AttributeError:
        pass


def default_pool_size() -> tuple[int, int]:
    """Autoscaling actor-pool bounds that leave CPU headroom for the read
    and shuffle stages.

    A pool that reserves every CPU starves the task operators feeding it and
    the pipeline deadlocks (observed with concurrency=4 on a 4-CPU local
    cluster).  The upper bound is 3/4 of the CPUs — the best point of the
    r2 link-pool sweep on the extract+link+canonicalize core flow, once the
    exchange stopped stealing CPU: larger pools slow the overlapped
    combine/exchange more than they speed the scan.  The reference sizes
    its pools the same way: parse workers default to ceil(cpu/2), not cpu
    (``input_params.py:16-24``).
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(1, cpus * 3 // 4))


def capped_pool_size(n_rows: int | None, batch_size: int) -> tuple[int, int]:
    """``default_pool_size`` additionally capped by how many batches the
    input can actually produce (VERDICT r3 #4: a full 24-actor pool spun up
    against a 500-row table pays fixed actor start-up for workers that
    never receive a batch — the measured 3.1x enrich_documents regression).
    Same pattern as ``shuffle.auto_num_buckets``: size the pool from an
    input hint, floor 1, never above the CPU-derived ceiling."""
    lo, hi = default_pool_size()
    if n_rows is not None:
        hi = max(lo, min(hi, -(-int(n_rows) // max(1, batch_size))))
    return (lo, hi)


def parquet_rows_hint(path: str) -> int | None:
    """Row count from Parquet footer metadata only (no data read); None when
    the path has no readable parquet footer."""
    import glob as _glob

    import pyarrow.parquet as pq

    try:
        files = (
            sorted(_glob.glob(os.path.join(path, "*.parquet")))
            if os.path.isdir(path)
            else [path]
        )
        if not files:
            return None
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    except Exception:
        return None


# Default per-stage batch sizing (the analog of the reference's
# cypher_tx_size=2000 / ingest_batch_size defaults, input_params.py:30-36).
DEFAULT_BATCH_SIZE = 4096
# Small batches for stages whose rows carry large binary payloads (html);
# SURVEY §7.5 "very wide rows".
WIDE_ROW_BATCH_SIZE = 256
