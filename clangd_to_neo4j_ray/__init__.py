"""clangd_to_neo4j_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the query/data-processing capabilities of the
reference repo ``2015xli/clangd-to-neo4j`` (clangd YAML index -> Neo4j code
graph), generalized to Common-Crawl-style web text per BASELINE.json:

    pages(url, warc_ts, html, text, lang)
      -> extract (byte-identical text per url)
      -> mention detection (alias dictionary, batched)
      -> entity linking (stateful actor pool: anchored + context-scored)
      -> canonicalization (content-hash entity IDs, two-phase
         (per-batch partial + one exchange) dedup of (subj, pred, obj) triples)
      -> materialize (nodes/edges Parquet + Neo4j bulk-import CSV + manifest)

Everything is built on ``ray.data.Dataset`` pipelines: ``map_batches`` over
zero-copy Arrow batches for per-record work, callable-class actor pools for
stateful stages, one bucket-range exchange (``stages/shuffle.py``) for every
wide step, streaming execution with backpressure throughout.  No code is
copied from the reference; ``file:line`` citations in docstrings point at the
reference behavior each component re-implements.
"""

__version__ = "0.1.0"
