"""Seeded benchmark inputs and the plain-Python references outputs are checked against.

Inputs are made from the run's seed only: a Zipf-skewed F1 pages corpus
(``sources.fixtures.generate_pages``) written as one Parquet file per
partition, plus a second version of one seeded partition for the traced
run's update walk.  Corpora are cached on disk under a key made of the seed, the sizes
and the generator's parameters and source, so a changed generator never
reuses a stale corpus.

The references (BFS, connected components, fixed-point PageRank, graph
content digest, triple precision/recall) are independent single-process
re-statements of what the engine computes; they run outside timed regions.
"""

from __future__ import annotations

import glob
import hashlib
import inspect
import json
import os
import random
import shutil
from collections import deque
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from clangd_to_neo4j_ray.sources import fixtures

SENT_RANGE = (2, 6)
RELATION_TYPES = frozenset(fixtures.PRED_PHRASES.values())


@dataclass
class Corpus:
    """One seeded corpus on disk: ``parts/`` holds version A of every
    partition, ``alt/`` version B of the update partition."""

    root: str
    n_pages: int
    n_files: int
    update_part: str
    planted: dict[str, set]  # "<part>" / "<part>@B" -> planted triples

    @property
    def parts_dir(self) -> str:
        return os.path.join(self.root, "parts")

    def part_file(self, part: str, version: str = "A") -> str:
        d = self.parts_dir if version == "A" else os.path.join(self.root, "alt")
        return os.path.join(d, f"{part}.parquet")

    def planted_for(self, versions: dict[str, str]) -> set:
        """Planted triple set of the corpus state that has partition
        ``p`` at ``versions.get(p, "A")``."""
        out: set = set()
        for part in self.part_names():
            v = versions.get(part, "A")
            out |= self.planted[part if v == "A" else f"{part}@B"]
        return out

    def part_names(self) -> list[str]:
        return [f"part-{k:05d}" for k in range(self.n_files)]


def _generator_key(seed: int, n_pages: int, n_files: int) -> str:
    params = {
        "seed": seed,
        "n_pages": n_pages,
        "n_files": n_files,
        "sent_range": SENT_RANGE,
        "generator": hashlib.sha256(
            inspect.getsource(fixtures).encode()
        ).hexdigest()[:16],
    }
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:20]


def _triples_table(triples: set) -> pa.Table:
    rows = sorted(triples)
    return pa.table(
        {
            "subj": pa.array([r[0] for r in rows], type=pa.string()),
            "pred": pa.array([r[1] for r in rows], type=pa.string()),
            "obj": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )


def _read_triples(path: str) -> set:
    t = pq.read_table(path)
    return set(zip(t["subj"].to_pylist(), t["pred"].to_pylist(), t["obj"].to_pylist()))


def make_corpus(cache_dir: str, seed: int, n_pages: int, n_files: int) -> Corpus:
    """Generate (or reuse from ``cache_dir``) the corpus for ``seed``.

    Partition ``k`` holds pages ``[k*per, (k+1)*per)`` generated from
    ``seed * 1000 + k``; version B of the update partition keeps the same
    page index range with a different content seed."""
    rng = random.Random(seed)
    update_k = rng.randrange(n_files)
    root = os.path.join(cache_dir, _generator_key(seed, n_pages, n_files))
    done = os.path.join(root, "DONE")
    per = n_pages // n_files
    names = [f"part-{k:05d}" for k in range(n_files)]
    if not os.path.exists(done):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(os.path.join(root, "parts"))
        os.makedirs(os.path.join(root, "alt"))
        os.makedirs(os.path.join(root, "planted"))
        jobs = [(name, "A", seed * 1000 + k, k) for k, name in enumerate(names)]
        jobs.append((names[update_k], "B", seed * 1000 + 500 + update_k, update_k))
        for name, version, part_seed, k in jobs:
            fx = fixtures.generate_pages(
                per, seed=part_seed, start=k * per, sent_range=SENT_RANGE
            )
            sub = "parts" if version == "A" else "alt"
            pq.write_table(fx.pages, os.path.join(root, sub, f"{name}.parquet"))
            key = name if version == "A" else f"{name}@B"
            pq.write_table(
                _triples_table(fx.oracle_triples),
                os.path.join(root, "planted", f"{key}.parquet"),
            )
        with open(done, "w") as f:
            f.write("ok\n")
    planted = {
        os.path.basename(p)[: -len(".parquet")]: _read_triples(p)
        for p in glob.glob(os.path.join(root, "planted", "*.parquet"))
    }
    return Corpus(root, per * n_files, n_files, names[update_k], planted)


def copy_pages(corpus: Corpus, dest: str) -> str:
    """Working copy of version A of every partition (the traced run toggles
    one partition of it between versions A and B)."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(corpus.parts_dir, dest)
    return dest


def install_version(corpus: Corpus, pages_dir: str, part: str, version: str) -> None:
    """Atomically replace one partition file of ``pages_dir``."""
    dst = os.path.join(pages_dir, f"{part}.parquet")
    shutil.copyfile(corpus.part_file(part, version), dst + ".tmp")
    os.replace(dst + ".tmp", dst)


def kernel_batch(corpus: Corpus, n_rows: int, seed: int) -> pa.Table:
    """A fixed seeded batch of pages for the single-process kernel timings."""
    tables = [pq.read_table(corpus.part_file(p)) for p in corpus.part_names()]
    pages = pa.concat_tables(tables)
    idx = sorted(random.Random(seed).sample(range(pages.num_rows), min(n_rows, pages.num_rows)))
    return pages.take(pa.array(idx))


# ---------------------------------------------------------------- references


def precision_recall(got: set, expected: set) -> tuple[float, float]:
    tp = len(got & expected)
    return (tp / len(got) if got else 0.0), (tp / len(expected) if expected else 1.0)


def _sorted_rows(t: pa.Table, cols: list[str]) -> list[tuple]:
    return sorted(zip(*(t[c].to_pylist() for c in cols)))


def read_dir(path: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    tables = [pq.read_table(f) for f in files]
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


GRAPH_COLUMNS = {
    "nodes": ["node_id", "label", "name"],
    "edges": ["src", "type", "dst"],
    "triples": ["subj", "pred", "obj", "evidence_url", "n_occurrences"],
}


def digest_tables(tables: dict[str, pa.Table]) -> str:
    """Order-independent content digest of nodes/edges/triples."""
    h = hashlib.sha256()
    for name, cols in GRAPH_COLUMNS.items():
        h.update(name.encode())
        for row in _sorted_rows(tables[name], cols):
            h.update(repr(row).encode())
    return h.hexdigest()


def digest_graph_dir(out_dir: str) -> str:
    return digest_tables({n: read_dir(os.path.join(out_dir, n)) for n in GRAPH_COLUMNS})


def bfs_reference(edges: list[tuple[str, str]], seed: str, max_hops: int = 25) -> set:
    """(node, hops) reachable over directed edges; the seed is at hop 0."""
    adj: dict[str, list[str]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    hops = {seed: 0}
    q = deque([seed])
    while q:
        n = q.popleft()
        if hops[n] >= max_hops:
            continue
        for m in adj.get(n, ()):
            if m not in hops:
                hops[m] = hops[n] + 1
                q.append(m)
    return set(hops.items())


def components_reference(edges: list[tuple[str, str]]) -> set:
    """(node, min node name of its undirected component)."""
    adj: dict[str, set] = {}
    for s, d in edges:
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    label: dict[str, str] = {}
    for start in sorted(adj):
        if start in label:
            continue
        comp, stack = [start], [start]
        label[start] = start
        while stack:
            for m in adj[stack.pop()]:
                if m not in label:
                    label[m] = start
                    comp.append(m)
                    stack.append(m)
    return set(label.items())


def pagerank_reference(
    edges: list[tuple[str, str]], iters: int, scale: int
) -> set:
    """(node, pr_scaled): the integer fixed-point PageRank over the distinct
    directed edge set, dangling mass dropped, 0.85 damping."""
    pairs = sorted(set(edges))
    nodes = sorted({n for e in pairs for n in e})
    idx = {n: i for i, n in enumerate(nodes)}
    src = np.array([idx[s] for s, _ in pairs], dtype=np.int64)
    dst = np.array([idx[d] for _, d in pairs], dtype=np.int64)
    outdeg = np.bincount(src, minlength=len(nodes)).astype(np.int64)
    init = scale // max(1, len(nodes))
    tele = (15 * init) // 100
    pr = np.full(len(nodes), init, dtype=np.int64)
    for _ in range(iters):
        s = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(s, dst, pr[src] // outdeg[src])
        pr = tele + (85 * s) // 100
    return set(zip(nodes, pr.tolist()))
