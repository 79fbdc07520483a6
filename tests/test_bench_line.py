"""``bench.py``'s last stdout line parses whole and stays within its byte
budget with a 117-query catalog; the per-pass runs are not on it."""

from __future__ import annotations

import json

import bench


def test_summary_line_parses_within_budget_with_117_queries():
    from clangd_to_neo4j_ray.queries import QUERIES

    names = list(QUERIES)[:117]
    names += [f"query_{i:03d}" for i in range(117 - len(names))]
    headline = {
        "headline_sec": 999.999,
        "n_pages": 40000,
        "n_triples": 10**7,
        "n_nodes": 10**7,
        "n_edges": 10**7,
        "triples_per_sec": 99999.9,
        "pages_per_sec": 99999.9,
    }
    line = bench.summary_line(headline, {n: 999.999 for n in names})
    assert "\n" not in line
    assert len(line.encode()) <= bench.LINE_BUDGET
    parsed = json.loads(line)
    assert len(parsed["queries"]) == 117
    assert parsed["value"] == 999.999 and parsed["num_cpus"] == bench.NUM_CPUS
    assert "query_runs" not in parsed and "headline_runs" not in parsed
