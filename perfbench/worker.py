"""Benchmark worker: one workload run in one Ray session.

Started by ``perfbench/run.py`` in its own process group, which the runner
kills when the worker ends or overruns.  The worker writes its full result
(every metric, latency samples, failures, environment) to ``--result`` and,
for a traced run, the spans to ``--spans``.

Workloads (closed loop, one client; see perfbench/README.md):

- ``build``: ``build_graph`` (Parquet + Neo4j CSV + manifest) over the whole
  corpus, checked against the single-process triple oracle (exact, with
  evidence urls), by triple P/R against the planted set and by
  ``validate_graph``;
- ``kg_query``: BFS from seeded domain/entity nodes over the full graph, and
  connected components and PageRank over the entity-relation subgraph, each
  checked against a plain-Python reference.

A traced run (``--trace 1``) times the hot kernels in this process without
Ray, then walks every layer once (update, build, query walks), recording a
span around each layer call, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import pyarrow as pa
import pyarrow.compute as pc

from perfbench import inputs
from perfbench.cpu import GroupCPU
from perfbench.tracer import Tracer

N_PAGES = 4000
N_FILES = 16
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
SETUP_REPEATS = 3
WARMUP_PAGES = 64
KERNEL_PAGES = 2048
KERNEL_REPEATS = 3
# Floor on triple precision/recall against the generator's planted set: a
# sanity check independent of the oracle.  At this corpus size P/R sits near
# 0.95 and dips below it on some seeds with a correct program (the exact
# oracle comparison is the strict check).
PR_FLOOR = 0.9
# Per-operation time limits: an operation past its limit counts as failed
# and ends the run (a hung Ray pipeline cannot be cancelled from outside).
OP_TIMEOUT_S = {"build": 90.0, "kg_query": 30.0, "walk": 90.0}
# Longest temp dir whose Ray socket paths stay under the 107-byte AF_UNIX
# limit (session dir name plus "/sockets/plasma_store" take 63 bytes).
MAX_RAY_TEMP_DIR = 44
QUERY_PATTERN = ("bfs_domain", "bfs_entity", "cc", "bfs_domain", "bfs_entity", "pagerank")
# BFS queries expand a 3-hop neighbourhood (domain -> folders -> pages ->
# entities): unbounded BFS runs one Ray round per hop until the frontier
# dies, so its cost would follow each seed graph's depth, not the system.
QUERY_HOPS = 3


class OpTimeout(Exception):
    pass


def _timed(fn, timeout: float):
    """Run ``fn`` in a daemon thread; return (value, seconds) or raise."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e
        box["dt"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise OpTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"], box["dt"]


def reset_peak_rss() -> None:
    """Reset this process's peak RSS (VmHWM); a no-op where not permitted."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    import polars
    import ray

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for path in sorted(glob.glob("clangd_to_neo4j_ray/**/*.py", recursive=True)):
        with open(path, "rb") as f:
            h.update(path.encode() + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ray_num_cpus": NUM_CPUS,
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "polars": polars.__version__,
        "n_pages": N_PAGES,
        "n_files": N_FILES,
    }


class Run:
    """Accounting for one run: operations, failures, metrics, details."""

    def __init__(self, args):
        self.args = args
        self.work = args.work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.steal: list[float] = []
        self.cpu_meter = GroupCPU()
        self.pending: list[tuple] = []
        self.peak_rss = 0.0
        self.metrics: dict[str, float] = {}
        self.details: dict = {}
        self.tracer = Tracer() if args.trace else None

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}"[:2000])

    def op(self, name: str, fn, check, timeout: float, record: bool = True):
        """One timed operation; its output is checked later, by
        ``check_outputs``, so checking takes none of the measured time."""
        self.attempted += 1
        reset_peak_rss()
        try:
            with self.cpu_meter.measure() as cpu:
                value, dt = _timed(fn, timeout)
        except OpTimeout as e:
            self.fail(name, f"timeout: {e}")
            self.finish_now()
        except Exception:
            self.fail(name, traceback.format_exc(limit=4))
            return None, None
        self.peak_rss = max(self.peak_rss, peak_rss_mb())
        if record:
            self.latencies.append(dt)
            self.cpu.append(cpu["cpu_s"])
            self.steal.append(cpu["steal_share"])
        self.pending.append((name, check, value))
        return value, dt

    def check_outputs(self) -> None:
        """Check every finished operation's output; a mismatch is a failed op."""
        for name, check, value in self.pending:
            try:
                problem = check(value)
            except Exception:
                problem = traceback.format_exc(limit=4)
            if problem:
                self.fail(name, problem)
        self.pending.clear()

    def keep_going(self, deadline: float) -> bool:
        """Start another operation if a typical one ends nearer ``deadline``
        than stopping now does: a run measures about ``--seconds``."""
        if not self.latencies:
            return self.attempted == 0
        return time.perf_counter() + statistics.median(self.latencies) / 2 <= deadline

    def result(self) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_op_ratio": self.failed / max(1, self.attempted),
            "failures": self.failures,
            "metrics": self.metrics,
            "details": self.details,
        }

    def write(self) -> None:
        tmp = self.args.result + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.result(), f, indent=1, default=str)
        os.replace(tmp, self.args.result)
        if self.tracer is not None:
            self.tracer.write(self.args.spans)

    def finish_now(self) -> None:
        """Write what was measured and exit at once, without stopping Ray:
        a timed-out operation may hold Ray forever, and the runner kills the
        whole process group anyway."""
        self.write()
        os._exit(0)


# ------------------------------------------------------------------ session


def start_session(work: str) -> None:
    import ray

    from clangd_to_neo4j_ray.context import tune_data_context

    kwargs = dict(
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
    )
    temp_dir = os.path.abspath(os.path.join(work, "ray"))
    if len(temp_dir) <= MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
    ray.init(**kwargs)
    tune_data_context()


def warm_up(work: str) -> None:
    """Extract and link-scan a tiny batch: starts the task and actor worker
    processes and imports the program in them, as every invocation must."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from clangd_to_neo4j_ray.sources.fixtures import alias_lookup, generate_pages, make_entities
    from clangd_to_neo4j_ray.stages.extract import extract_stage
    from clangd_to_neo4j_ray.stages.linking import link_scan_stage

    pages = os.path.join(work, "warmup", "pages")
    if not os.path.isdir(pages):
        os.makedirs(pages)
        pq.write_table(generate_pages(WARMUP_PAGES, seed=0).pages, os.path.join(pages, "part-0.parquet"))
    lut = ray.put(alias_lookup(make_entities()))
    link_scan_stage(extract_stage(ray.data.read_parquet(pages)), lut).materialize()


def set_up(run: Run) -> None:
    """setup_s: Ray session start + context tuning + warm-up, median of
    ``SETUP_REPEATS`` sessions (all but the last are shut down again)."""
    import ray

    samples = []
    for i in range(SETUP_REPEATS):
        if i:
            ray.shutdown()
        t0 = time.perf_counter()
        start_session(run.work)
        warm_up(run.work)
        samples.append(time.perf_counter() - t0)
    run.metrics["setup_s"] = statistics.median(samples)
    run.details["setup_samples_s"] = samples


# ------------------------------------------------------------------- checks


def check_build(out: str, expected: tuple[dict, set]) -> str | None:
    """``expected``: (oracle triple -> evidence url, planted triples)."""
    from clangd_to_neo4j_ray.stages.materialize import validate_graph

    oracle, planted = expected
    t = inputs.read_dir(os.path.join(out, "triples"))
    got = dict(
        zip(
            zip(t["subj"].to_pylist(), t["pred"].to_pylist(), t["obj"].to_pylist()),
            t["evidence_url"].to_pylist(),
        )
    )
    if got != oracle:
        return f"{len(got.items() ^ oracle.items())} triples differ from the oracle"
    p, r = inputs.precision_recall(set(got), planted)
    if p < PR_FLOOR or r < PR_FLOOR:
        return f"triple precision/recall {p:.4f}/{r:.4f} below {PR_FLOOR}"
    v = validate_graph(out)
    if any(v.values()):
        return f"graph invariants violated: {v}"
    return None


# ---------------------------------------------------------------- workloads


class State:
    """Per-run inputs shared by the workloads and the traced walks."""

    def __init__(self, run: Run):
        from clangd_to_neo4j_ray.sources.fixtures import make_entities

        self.run = run
        self.corpus = inputs.make_corpus(
            os.path.join(run.work, "corpus"), run.args.seed, N_PAGES, N_FILES
        )
        self.rundir = os.path.join(run.work, "run")
        shutil.rmtree(self.rundir, ignore_errors=True)
        os.makedirs(self.rundir)
        self.pages = inputs.copy_pages(self.corpus, os.path.join(self.rundir, "pages"))
        self.ckpt = os.path.join(self.rundir, "ckpt")
        self.entities = make_entities()
        self.versions: dict[str, str] = {}
        self.n_outputs = 0

    def fresh_out(self) -> str:
        """A new output directory, kept until the outputs are checked (the
        program's triples write appends to an existing directory)."""
        self.n_outputs += 1
        return os.path.join(self.rundir, f"out{self.n_outputs}")

    def toggle(self) -> str:
        part = self.corpus.update_part
        version = "B" if self.versions.get(part, "A") == "A" else "A"
        inputs.install_version(self.corpus, self.pages, part, version)
        self.versions[part] = version
        return version

    def expected(self) -> tuple[dict, set]:
        """Oracle and planted triples of the current corpus state."""
        from clangd_to_neo4j_ray.oracle import oracle_triples

        pages = inputs.read_dir(self.pages).select(["url", "html"]).to_pylist()
        return oracle_triples(pages, self.entities), self.corpus.planted_for(self.versions)


def workload_build(st: State, seconds: float) -> None:
    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph

    run = st.run
    expected = st.expected()
    deadline = time.perf_counter() + seconds
    while run.keep_going(deadline):
        out = st.fresh_out()
        run.op(
            "build",
            lambda out=out: build_graph(st.pages, st.entities, out),
            lambda _m, out=out: check_build(out, expected),
            OP_TIMEOUT_S["build"],
        )
    med = statistics.median(run.latencies) if run.latencies else None
    run.details["build_s"] = med
    run.details["build_pages_per_s"] = st.corpus.n_pages / med if med else None


class Graph:
    """The built graph loaded for queries, plus its references."""

    def __init__(self, out: str):
        import ray.data

        edges = inputs.read_dir(os.path.join(out, "edges"))
        nodes = inputs.read_dir(os.path.join(out, "nodes"))
        self.edge_list = list(zip(edges["src"].to_pylist(), edges["dst"].to_pylist()))
        rel = edges.filter(pc.is_in(edges["type"], pa.array(sorted(inputs.RELATION_TYPES))))
        self.rel_list = list(zip(rel["src"].to_pylist(), rel["dst"].to_pylist()))
        self.edges = ray.data.read_parquet(os.path.join(out, "edges")).materialize()
        self.rel = self.edges.map_batches(
            lambda t: t.filter(pc.is_in(t["type"], pa.array(sorted(inputs.RELATION_TYPES)))),
            batch_format="pyarrow",
        ).materialize()
        labels = dict(zip(nodes["node_id"].to_pylist(), nodes["label"].to_pylist()))
        self.seeds = {
            "bfs_domain": sorted(n for n, lb in labels.items() if lb == "DOMAIN"),
            "bfs_entity": sorted(n for n, lb in labels.items() if lb == "ENTITY"),
        }
        self._bfs_ref: dict[str, set] = {}
        self._cc_ref: set | None = None
        self._pr_ref: set | None = None

    def query(self, kind: str, rng: random.Random):
        """(callable, expected result) for one query of ``kind``."""
        from clangd_to_neo4j_ray.stages.graph_algo import (
            PR_ITERS,
            PR_SCALE,
            connected_components_ds,
            pagerank_ds,
            reachable_from_ds,
        )

        if kind in self.seeds:
            seed = rng.choice(self.seeds[kind])
            if seed not in self._bfs_ref:
                self._bfs_ref[seed] = inputs.bfs_reference(self.edge_list, seed, QUERY_HOPS)
            fn = lambda: {  # noqa: E731
                (r["node"], r["hops"])
                for r in reachable_from_ds(self.edges, [seed], max_hops=QUERY_HOPS).take_all()
            }
            return fn, self._bfs_ref[seed]
        if kind == "cc":
            if self._cc_ref is None:
                self._cc_ref = inputs.components_reference(self.rel_list)
            fn = lambda: {(r["node"], r["label"]) for r in connected_components_ds(self.rel).take_all()}  # noqa: E731
            return fn, self._cc_ref
        if self._pr_ref is None:
            self._pr_ref = inputs.pagerank_reference(self.rel_list, PR_ITERS, PR_SCALE)
        fn = lambda: {(r["node"], r["pr_scaled"]) for r in pagerank_ds(self.rel).take_all()}  # noqa: E731
        return fn, self._pr_ref


def result_check(expected: set):
    def check(got: set) -> str | None:
        if got != expected:
            return f"{len(got ^ expected)} rows differ from the reference"
        return None

    return check


def workload_kg_query(st: State, seconds: float) -> None:
    run = st.run
    graph = Graph(st.graph_out)
    deadline = time.perf_counter() + seconds
    rng = random.Random(st.run.args.seed * 7 + 3)
    by_kind: dict[str, list[float]] = {}
    # whole rounds of QUERY_PATTERN only, so every run measures the same mix
    rounds: list[float] = []
    while not rounds or time.perf_counter() + statistics.median(rounds) / 2 <= deadline:
        t0 = time.perf_counter()
        for kind in QUERY_PATTERN:
            fn, expected = graph.query(kind, rng)
            _v, dt = run.op(kind, fn, result_check(expected), OP_TIMEOUT_S["kg_query"])
            if dt is not None:
                by_kind.setdefault(kind, []).append(dt)
        rounds.append(time.perf_counter() - t0)
    run.details["query_s_by_kind"] = {k: statistics.median(v) for k, v in by_kind.items()}
    if run.latencies:
        q = statistics.quantiles(run.latencies, n=4) if len(run.latencies) > 1 else run.latencies * 3
        run.details.update(query_p50_s=q[1], query_p75_s=q[2])


def end_to_end_metrics(run: Run) -> None:
    """The bounded time metric is CPU seconds per operation, not wall time,
    taken over the quieter half of the operations (see perfbench/README.md):
    the operations, the run's first left out (it fills the worker pool), are
    ranked by the share of the VM's CPU time the hypervisor gave to other
    tenants while they ran, and ``cpu_s_per_op`` is the median CPU time of
    the half with the least.  Wall-clock latency over every operation is
    reported beside it, unbounded."""
    lat = run.latencies
    if not lat:
        return
    ops = list(zip(run.steal, run.cpu))
    ops = ops[1:] or ops
    quiet = sorted(ops, key=lambda op: op[0])[: (len(ops) + 1) // 2]
    run.metrics["cpu_s_per_op"] = statistics.median(cpu for _steal, cpu in quiet)
    run.metrics["driver_peak_rss_mb"] = run.peak_rss
    run.details["cpu_p50_all_ops_s"] = statistics.median(run.cpu)
    run.details["latency_p50_s"] = statistics.median(lat)
    # one closed-loop client: throughput is 1 / mean latency
    run.details["ops_per_s"] = len(lat) / sum(lat)
    run.details["latencies_s"] = lat
    run.details["cpu_s"] = run.cpu
    run.details["steal_share"] = run.steal


# ------------------------------------------------------------- traced walks


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _du(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _s, files in os.walk(path) for f in files
    )


def time_kernels(st: State) -> None:
    """Hot kernels in this process, no Ray: HTML extraction and the
    LinkScan linker over a fixed seeded batch; median of the repeats."""
    from clangd_to_neo4j_ray.sources.fixtures import alias_lookup
    from clangd_to_neo4j_ray.stages.extract import extract_text_from_html
    from clangd_to_neo4j_ray.stages.linking import LinkScan

    run = st.run
    batch = inputs.kernel_batch(st.corpus, KERNEL_PAGES, run.args.seed)
    htmls = batch["html"].to_pylist()
    ex_s, link_s = [], []
    texts: list[str] = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        texts = [extract_text_from_html(h) for h in htmls]
        ex_s.append(time.perf_counter() - t0)
    run.attempted += 1
    if texts != batch["text"].to_pylist():
        run.fail("extract-kernel", "extracted text differs from the page text")
    scan = LinkScan(alias_lookup(st.entities))
    table = pa.table({"url": batch["url"], "text": pa.array(texts, type=pa.string())})
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        out = scan(table)
        link_s.append(time.perf_counter() - t0)
    run.attempted += 1
    if out.num_rows == 0:
        run.fail("link-kernel", "LinkScan produced no rows")
    n = batch.num_rows
    run.metrics["extract.kernel_pages_per_s"] = n / statistics.median(ex_s)
    run.metrics["linking.kernel_pages_per_s"] = n / statistics.median(link_s)


def walk_update(st: State, out: str) -> dict:
    """incremental_build, one layer call at a time."""
    import ray.data

    from clangd_to_neo4j_ray.pipelines.build_graph import graph_nodes_edges
    from clangd_to_neo4j_ray.sources.fixtures import alias_lookup
    from clangd_to_neo4j_ray.stages.canonicalize import canonicalize_triples
    from clangd_to_neo4j_ray.stages.extract import extract_batch
    from clangd_to_neo4j_ray.stages.linking import LinkScan
    from clangd_to_neo4j_ray.stages.materialize import write_graph
    from clangd_to_neo4j_ray.state.checkpoint import (
        StageCheckpoint,
        fingerprint_file,
        list_partitions,
    )

    tr, m = st.run.tracer, st.run.metrics
    lut = alias_lookup(st.entities)

    def scan_partition(pages):
        scan = LinkScan(lut)
        return pages.map_batches(
            lambda b: scan(extract_batch(b)), batch_format="pyarrow", batch_size=256
        )

    def kind(k):
        cols = ["subj", "pred", "obj", "evidence_url"] if k == "triple" else ["url", "entity_id"]
        return lambda t: t.filter(pc.equal(t["kind"], k)).select(cols)

    with tr.span("update") as root:
        with tr.span("checkpoint.fingerprint") as s_fp:
            parts = list_partitions(st.pages)
            for path in parts.values():
                fingerprint_file(path)
        with tr.span("checkpoint.stage1") as s_st1:
            ckpt = StageCheckpoint(st.ckpt, "link")
            stage1 = ckpt.run(st.pages, scan_partition)
        tagged = ckpt.output_dataset()
        with tr.span("canonicalize"):
            triples = canonicalize_triples(
                tagged.map_batches(kind("triple"), batch_format="pyarrow")
            ).materialize()
        with tr.span("graph.nodes"):
            mentions = tagged.map_batches(kind("mention"), batch_format="pyarrow").materialize()
            names = {e.entity_id: e.canonical_name for e in st.entities}
            urls = ray.data.read_parquet(st.pages, columns=["url"])
            nodes, edges = graph_nodes_edges(urls, mentions, triples, names)
            nodes = nodes.materialize()
        with tr.span("graph.edges"):
            edges = edges.materialize()
        with tr.span("materialize"):
            write_graph(nodes, edges, out, lineage={"input": st.pages}, write_neo4j_csv=False)
            triples.write_parquet(os.path.join(out, "triples"))
    m["checkpoint.fingerprint_s"] = _dur(s_fp)
    m["checkpoint.stage1_s"] = _dur(s_st1)
    m["checkpoint.computed"] = len(stage1["computed"])
    m["checkpoint.reuse_ratio"] = len(stage1["skipped"]) / len(parts)
    return {"root_s": _dur(root), "stage1": stage1}


def walk_build(st: State, out: str) -> dict:
    """build_graph, one layer call at a time, each result materialized."""
    import ray
    import ray.data

    from clangd_to_neo4j_ray.pipelines.build_graph import graph_nodes_edges
    from clangd_to_neo4j_ray.sources.fixtures import alias_lookup
    from clangd_to_neo4j_ray.stages.canonicalize import canonicalize_triples, dead_letter_stats
    from clangd_to_neo4j_ray.stages.extract import extract_stage
    from clangd_to_neo4j_ray.stages.linking import link_scan_stage, split_link_scan
    from clangd_to_neo4j_ray.stages.materialize import write_graph

    tr, m = st.run.tracer, st.run.metrics
    names = {e.entity_id: e.canonical_name for e in st.entities}
    with tr.span("build") as root:
        with tr.span("extract") as s_ex:
            extracted = extract_stage(ray.data.read_parquet(st.pages)).materialize()
        with tr.span("linking") as s_ln:
            tagged = link_scan_stage(extracted, ray.put(alias_lookup(st.entities))).materialize()
        candidates, mentions = split_link_scan(tagged)
        # build_graph_datasets' order: canonicalize right after the link
        # scan, then the mention split
        with tr.span("canonicalize") as s_cn:
            triples = canonicalize_triples(candidates).materialize()
        with tr.span("graph.nodes") as s_gn:
            mentions = mentions.materialize()
            nodes, edges = graph_nodes_edges(extracted, mentions, triples, names)
            nodes = nodes.materialize()
        with tr.span("graph.edges") as s_ge:
            edges = edges.materialize()
        with tr.span("materialize") as s_mt:
            with tr.span("materialize.write_graph") as s_wg:
                manifest = write_graph(
                    nodes, edges, out, lineage={"input": st.pages, "format": "parquet"}
                )
            with tr.span("materialize.triples"):
                triples.write_parquet(os.path.join(out, "triples"))
    stages = manifest["stages"]
    m.update(
        {
            "extract.wall_s": _dur(s_ex),
            "extract.bytes_in": _du(st.pages),
            "extract.bytes_out": extracted.size_bytes(),
            "linking.wall_s": _dur(s_ln),
            "linking.rows_out": tagged.count(),
            "linking.dead_letters": dead_letter_stats(candidates)["n"][0].as_py(),
            "canonicalize.wall_s": _dur(s_cn),
            "canonicalize.rows_in": candidates.count(),
            "canonicalize.rows_out": triples.count(),
            "graph.nodes_wall_s": _dur(s_gn),
            "graph.edges_wall_s": _dur(s_ge),
            "graph.nodes_rows": nodes.count(),
            "graph.edges_rows": edges.count(),
            "materialize.nodes_write_s": stages["write_nodes"]["wall_sec"],
            "materialize.edges_write_s": stages["write_edges"]["wall_sec"],
            "materialize.csv_write_s": _dur(s_wg)
            - stages["write_nodes"]["wall_sec"]
            - stages["write_edges"]["wall_sec"],
            "materialize.bytes_written": _du(out),
        }
    )
    st.run.details["materialize_s"] = _dur(s_mt)
    bucket_skew(st, candidates)
    return {"root_s": _dur(root)}


def bucket_skew(st: State, candidates) -> None:
    """Rows per bucket of the canonicalize exchange: the shuffle layer's own
    bucket assignment applied to the materialized exchange input (the
    dead-letter-filtered per-batch partials canonicalize_triples builds)."""
    import numpy as np

    from clangd_to_neo4j_ray.stages.canonicalize import _partial_dedup
    from clangd_to_neo4j_ray.stages.linking import DEAD_LETTER
    from clangd_to_neo4j_ray.stages.shuffle import _add_bucket_arrow, auto_num_buckets

    keys = ["subj", "pred", "obj"]
    partials = (
        candidates.map_batches(
            lambda t: t.filter(pc.not_equal(t["pred"], DEAD_LETTER)), batch_format="pyarrow"
        )
        .select_columns(keys + ["evidence_url"])
        .map_batches(_partial_dedup, batch_format="pyarrow", batch_size=65536)
    )
    n_buckets = auto_num_buckets(partials)
    assign = _add_bucket_arrow(keys, n_buckets)
    counts = np.zeros(n_buckets, dtype=np.int64)
    for batch in partials.materialize().iter_batches(batch_format="pyarrow", batch_size=None):
        if batch.num_rows:
            b = assign(batch)["__bucket"].to_numpy()
            counts += np.bincount(b, minlength=n_buckets)
    med = float(np.median(counts))
    st.run.metrics["canonicalize.buckets"] = n_buckets
    st.run.metrics["canonicalize.bucket_skew"] = float(counts.max()) / med if med else float("inf")
    st.run.details["canonicalize_bucket_rows"] = counts.tolist()


def walk_queries(st: State, graph: Graph) -> dict:
    tr, m = st.run.tracer, st.run.metrics
    rng = random.Random(st.run.args.seed * 7 + 3)
    names = {"bfs_domain": "graph_algo.bfs", "cc": "graph_algo.cc", "pagerank": "graph_algo.pagerank"}
    problems = []
    with tr.span("query") as root:
        for kind, span_name in names.items():
            fn, expected = graph.query(kind, rng)
            with tr.span(span_name) as s:
                got = fn()
            m[span_name + "_s"] = _dur(s)
            problems.append(result_check(expected)(got))
    return {"root_s": _dur(root), "problems": [p for p in problems if p]}


def traced_run(st: State) -> None:
    """Untraced op once, then a checkpoint of the corpus, one partition
    toggled, and the update, build and query walks on that corpus state;
    trace.overhead_s = the workload's walk minus its untraced op."""
    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph
    from clangd_to_neo4j_ray.pipelines.incremental import incremental_build

    run, wl = st.run, st.run.args.workload
    timeout = OP_TIMEOUT_S["walk"]
    graph = None
    if wl == "build":
        out, expected = st.fresh_out(), st.expected()
        _v, base = run.op(
            "build", lambda: build_graph(st.pages, st.entities, out),
            lambda _m: check_build(out, expected), timeout,
        )
    else:
        graph = Graph(st.graph_out)
        rng = random.Random(run.args.seed * 7 + 3)
        base = 0.0
        for kind in ("bfs_domain", "cc", "pagerank"):
            fn, expected = graph.query(kind, rng)
            _v, dt = run.op(kind, fn, result_check(expected), timeout)
            base += dt or 0.0
    run.op(
        "checkpoint", lambda: incremental_build(st.pages, st.entities, st.ckpt, st.fresh_out()),
        lambda _r: None, timeout, record=False,
    )
    st.toggle()
    out_u = st.fresh_out()
    walks = {}
    walks["update"], _dt = run.op(
        "walk-update", lambda: walk_update(st, out_u),
        lambda r: None if r["stage1"]["computed"] == [st.corpus.update_part]
        else f"stage 1 recomputed {r['stage1']['computed']}",
        timeout, record=False,
    )
    digest_u = inputs.digest_graph_dir(out_u)
    out_b, expected_b = os.path.join(st.rundir, "walk-build"), st.expected()
    walks["build"], _dt = run.op(
        "walk-build", lambda: walk_build(st, out_b),
        lambda _r: check_build(out_b, expected_b)
        or (None if inputs.digest_graph_dir(out_b) == digest_u
            else "update walk and build walk graphs differ (F6)"),
        timeout, record=False,
    )
    if graph is None:  # kg_query walks the graph its untraced queries used
        graph = Graph(out_b)
    walks["query"], _dt = run.op(
        "walk-query", lambda: walk_queries(st, graph),
        lambda r: "; ".join(r["problems"]) or None, timeout, record=False,
    )
    key = {"build": "build", "kg_query": "query"}[wl]
    if walks.get(key) and base:
        run.metrics["trace.overhead_s"] = walks[key]["root_s"] - base
    run.details["walk_root_s"] = {k: v["root_s"] for k, v in walks.items() if v}
    run.details["untraced_op_s"] = base


# --------------------------------------------------------------------- main


def body(run: Run) -> None:
    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph

    phases = run.details["phases_s"] = {}
    t = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        phases[name] = now - t
        t = now

    run.details["environment"] = environment()
    st = State(run)
    phase("inputs")
    if run.args.trace:
        time_kernels(st)
        phase("kernels")
    set_up(run)
    phase("setup")
    wl = run.args.workload
    if wl == "kg_query":
        st.graph_out = os.path.join(st.rundir, "graph")
        build_graph(st.pages, st.entities, st.graph_out, write_neo4j_csv=False)
    phase("references")
    if run.args.trace:
        traced_run(st)
    else:
        if wl == "build":
            workload_build(st, run.args.seconds)
        else:
            workload_kg_query(st, run.args.seconds)
        end_to_end_metrics(run)
    phase("measure")
    run.check_outputs()
    phase("checks")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["build", "kg_query"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True)
    run = Run(p.parse_args(argv))
    try:
        body(run)
    except Exception:
        run.fail("run", traceback.format_exc(limit=6))
    run.finish_now()


if __name__ == "__main__":
    main()
