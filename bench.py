#!/usr/bin/env python
"""Benchmark driver.

Headline: the flagship pages->KG build (extract -> link -> canonicalize ->
materialize consume) over a deterministic synthetic F1 pages corpus (cached
under /tmp, seeded — FIXTURES.md F1), sized by BENCH_PAGES (default 40000).
Also times every registered query over $GRAFT_SF_DIR (default
/root/testdata/sf0.1).

Prints ONE compact JSON line, at most LINE_BUDGET bytes with the whole
catalog, so it always parses:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {<name>: <min sec>}, "sf": ..., "num_cpus": N,
   "triples_per_sec": ..., "runs_file": "bench_runs.json"}
Every pass of every query and of the headline goes to RUNS_FILE (in the
working directory), not to that line.

--scaling: runs the headline build (one pass, no queries) in fresh processes
at two CPU counts (num_cpus=8 and 32 by default) on the same dense input and
reports both throughputs + scaling efficiency (the single-host stand-in for
the N vs 4N cluster criterion).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_PAGES = int(os.environ.get("BENCH_PAGES", "40000"))
BENCH_DENSE = os.environ.get("BENCH_DENSE")  # denser pages for scaling runs
SENT_RANGE = (20, 40) if BENCH_DENSE else (2, 6)
PAGES_CACHE = f"/tmp/kg_bench_pages_{BENCH_PAGES}" + ("_dense" if BENCH_DENSE else "")
RUNS_FILE = "bench_runs.json"
LINE_BUDGET = 4096  # bytes of the last stdout line


def ensure_pages_corpus() -> str:
    """Generate (once) the deterministic pages corpus used by the headline.

    Requires an initialized Ray session (sharded parallel generation)."""
    import glob

    if glob.glob(f"{PAGES_CACHE}/*.parquet"):
        return PAGES_CACHE
    from clangd_to_neo4j_ray.sources.fixtures import generate_pages_sharded

    generate_pages_sharded(BENCH_PAGES, PAGES_CACHE, num_shards=32, sent_range=SENT_RANGE)
    return PAGES_CACHE


def run_headline() -> dict:
    from clangd_to_neo4j_ray.pipelines.build_graph import build_graph_datasets
    from clangd_to_neo4j_ray.sources.fixtures import alias_lookup, make_entities
    from clangd_to_neo4j_ray.sources.pages import read_pages

    pages_dir = ensure_pages_corpus()
    entities = make_entities()
    lut = alias_lookup(entities)
    names = {e.entity_id: e.canonical_name for e in entities}

    # warm the page cache with one untimed read
    read_pages(pages_dir).count()

    t0 = time.perf_counter()
    # build_graph's own source, so the headline times the plan it runs
    pages = read_pages(pages_dir)
    triples, mentions, nodes, edges = build_graph_datasets(pages, lut, names)
    n_triples = triples.count()
    n_nodes = nodes.count()
    n_edges = edges.count()
    wall = time.perf_counter() - t0
    return {
        "headline_sec": round(wall, 3),
        "n_pages": BENCH_PAGES,
        "n_triples": n_triples,
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "triples_per_sec": round(n_triples / wall, 1),
        "pages_per_sec": round(BENCH_PAGES / wall, 1),
    }


QUERY_PASSES = int(os.environ.get("BENCH_QUERY_PASSES", "2"))
HEADLINE_PASSES = int(os.environ.get("BENCH_HEADLINE_PASSES", "2"))
# Soft wall-clock budget for the query passes: pass k+1 only starts if the
# elapsed time so far projects it to finish inside the budget — a busy host
# gets a 1-pass artifact instead of a timeout and NO artifact.
QUERY_TIME_BUDGET = float(os.environ.get("BENCH_QUERY_BUDGET_SEC", "600"))


def run_queries() -> tuple[dict[str, float], dict[str, list[float]]]:
    """Min-of-N with INTERLEAVED passes (VERDICT r4 next #7): the whole
    catalog runs N times pass-by-pass, so a co-tenant load transient hits
    every query alike instead of inflating whichever queries ran during
    the busy minute (the r4 single-pass artifact read 2.4x slow and cost a
    false regression scare).  Returns (min per query, all runs per query).
    """
    from clangd_to_neo4j_ray.queries import QUERIES

    runs: dict[str, list[float]] = {name: [] for name in QUERIES}
    t_start = time.perf_counter()
    for p in range(max(1, QUERY_PASSES)):
        elapsed = time.perf_counter() - t_start
        if p > 0 and elapsed * (p + 1) / p > QUERY_TIME_BUDGET:
            break  # another pass would project past the budget
        for name, fn in QUERIES.items():
            t0 = time.perf_counter()
            r = fn(SF_DIR)
            if hasattr(r, "count"):
                r.count()  # execute the pipeline
            runs[name].append(round(time.perf_counter() - t0, 3))
    return {name: min(v) for name, v in runs.items()}, runs


def init_ray() -> None:
    """Local Ray session with ``NUM_CPUS`` CPUs and the repo's DataContext."""
    import ray

    from clangd_to_neo4j_ray.context import tune_data_context

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # honest per-leg CPU accounting: without this, polars/arrow thread
        # pools inside 1-CPU tasks fan out to every physical core and the
        # low-parallelism leg silently uses the whole box
        runtime_env={"env_vars": {"POLARS_MAX_THREADS": "1",
                                  "OMP_NUM_THREADS": "1"}},
    )
    tune_data_context()


def main() -> None:
    import ray

    init_ray()

    # headline min-of-N too (same rationale as the query passes)
    hl_runs = [run_headline() for _ in range(max(1, HEADLINE_PASSES))]
    headline = min(hl_runs, key=lambda h: h["headline_sec"])
    queries, query_runs = run_queries()
    ray.shutdown()

    with open(RUNS_FILE, "w") as f:
        json.dump(
            {
                "query_runs": query_runs,
                "headline_runs": [h["headline_sec"] for h in hl_runs],
            },
            f,
        )
    print(summary_line(headline, queries))


def summary_line(headline: dict, queries: dict[str, float]) -> str:
    """The last stdout line: the headline, ``num_cpus`` and the per-query
    minima as compact JSON (the per-pass runs are in ``RUNS_FILE``)."""
    return json.dumps(
        {
            "metric": "pages->KG full build wall time (extract+link+canonicalize+materialize)",
            "value": headline["headline_sec"],
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "runs_file": RUNS_FILE,
            **headline,
        },
        separators=(",", ":"),
    )


def scaling(
    lo: int = int(os.environ.get("SCALE_LO", "8")),
    hi: int = int(os.environ.get("SCALE_HI", "32")),
) -> None:
    """The headline build (``run_headline``), fresh processes at two
    parallelism levels — the single-host stand-in for the N vs 4N
    cluster-size criterion.

    The low leg is measured two ways:

    - raw: the box is otherwise idle, so the few busy cores turbo ~35%
      above the all-core frequency (measured: solo kernel 4,967 pages/s on
      an idle box vs 3,694 with the other cores merely spinning).  This
      artifact does not exist in a real N-vs-4N comparison, where every
      node in BOTH legs runs the same all-core load.
    - fixed-envelope: (hi - lo) spinner processes keep the rest of the box
      busy during the low leg, pinning both legs to the same frequency /
      power envelope.  The remaining gap between the legs is then the
      coordination + exchange cost — the thing the criterion measures.

    Both efficiencies are reported; BASELINE.md records the supporting
    kernel-level measurements."""
    scale_pages = os.environ.get("SCALE_PAGES", "2400000")
    repeats = int(os.environ.get("SCALE_REPEATS", "3"))

    def run_once(ncpu: int, spin: int = 0) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_SKIP_QUERIES="1",
            BENCH_PAGES=scale_pages,
            BENCH_DENSE="1",
        )
        spinners = [
            subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(spin)
        ]
        try:
            out = subprocess.run(
                [sys.executable, __file__], env=env, capture_output=True,
                text=True, check=True,
            ).stdout
        finally:
            for p in spinners:
                p.kill()
        return json.loads(out.strip().splitlines()[-1])

    # Interleave the legs within each round (lo, lo-fixed-envelope, hi) so
    # the shared host's load drift — identical runs swing 2x minutes apart —
    # hits every leg alike; min-of-rounds per leg then compares like with
    # like instead of one leg's quiet minute against another's busy one.
    legs = {"lo": (lo, 0), "lo_env": (lo, hi - lo), "hi": (hi, 0)}
    if os.environ.get("SCALE_NO_ENV_LEG"):
        # for runs where BOTH legs under-subscribe the box (e.g. 4 vs 16 of
        # 32 cores) the legs already share a frequency envelope and the
        # spinner leg adds nothing but wall time (VERDICT r2 #7)
        del legs["lo_env"]
    runs: dict[str, list[dict]] = {k: [] for k in legs}
    for _ in range(repeats):
        for k, (ncpu, spin) in legs.items():
            runs[k].append(run_once(ncpu, spin))
    best = {k: min(v, key=lambda r: r["value"]) for k, v in runs.items()}
    all_sec = {k: [r["value"] for r in v] for k, v in runs.items()}
    eff = (best["lo"]["value"] / best["hi"]["value"]) / (hi / lo)
    out = {
        "sec_lo": best["lo"]["value"],
        "sec_hi": best["hi"]["value"],
        "cpus_lo": lo,
        "cpus_hi": hi,
        "throughput_lo_pages_per_sec": best["lo"]["pages_per_sec"],
        "throughput_hi_pages_per_sec": best["hi"]["pages_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "all_sec_lo": all_sec["lo"],
        "all_sec_hi": all_sec["hi"],
        "n_pages": int(scale_pages),
    }
    if "lo_env" in best:
        eff_env = (best["lo_env"]["value"] / best["hi"]["value"]) / (hi / lo)
        out.update(
            sec_lo_fixed_envelope=best["lo_env"]["value"],
            throughput_lo_fixed_envelope_pages_per_sec=best["lo_env"][
                "pages_per_sec"
            ],
            scaling_efficiency_fixed_envelope=round(eff_env, 3),
            all_sec_lo_fixed_envelope=all_sec["lo_env"],
        )
    print(json.dumps(out))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        if os.environ.get("BENCH_SKIP_QUERIES"):
            # scaling mode: headline only
            import ray

            init_ray()
            headline = run_headline()
            ray.shutdown()
            print(
                json.dumps(
                    {
                        "metric": "pages->KG full build wall time",
                        "value": headline["headline_sec"],
                        "unit": "sec",
                        "queries": {},
                        "sf": SF_DIR,
                        "num_cpus": NUM_CPUS,
                        **headline,
                    }
                )
            )
        else:
            main()
