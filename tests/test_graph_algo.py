"""Graph-algorithm unit tests: BFS reachability, iterative orphan prune,
dead-letter accounting."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from clangd_to_neo4j_ray.stages.graph_algo import (
    prune_orphans_to_fixpoint,
    reachable_from,
)

from .util import link_kernel_rows, link_spec_rows


def test_reachable_from_hop_distances():
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": ["a", "b", "c", "x"],
                "dst": ["b", "c", "a", "y"],
            }
        )
    )
    dist = reachable_from(edges, {"a"})
    assert dist == {"a": 0, "b": 1, "c": 2}


def test_prune_orphans_iterative():
    # chain a->b plus orphan o1; removing o1 leaves a,b intact;
    # then a dangling chain c (node without edges) cascades out
    nodes = ray.data.from_arrow(
        pa.table(
            {
                "node_id": ["a", "b", "o1", "c"],
                "label": ["N"] * 4,
                "name": ["a", "b", "o1", "c"],
            }
        )
    )
    edges = ray.data.from_arrow(
        pa.table({"src": ["a", "b"], "type": ["E", "E"], "dst": ["b", "c"]})
    )
    n2, e2 = prune_orphans_to_fixpoint(nodes, edges)
    ids = {r["node_id"] for r in n2.take_all()}
    assert ids == {"a", "b", "c"}  # all edge-incident; only o1 pruned
    assert e2.count() == 2


def test_dead_letter_rows_emitted():
    """Drop-vs-error policy (SURVEY §7.5): a pronoun sentence with no
    preceding anchored subject becomes a dead-letter row, not a silent drop."""
    from clangd_to_neo4j_ray.stages.canonicalize import dead_letter_stats
    from clangd_to_neo4j_ray.stages.linking import DEAD_LETTER, EntityLinker

    lut = {"Gamma": "e3", "Delta": "e4"}
    linker = EntityLinker(lut)
    mentions, triples = linker.link_text("u1", "It links to Gamma.")
    assert len(triples) == 1
    assert triples[0][0] is None and triples[0][1] == DEAD_LETTER
    # the kernel too, also when an earlier page has an anchored subject
    texts = ["Delta links to Gamma.", "It links to Gamma.", "It links to Gamma."]
    urls = ["u0", "u1", "u2"]
    kernel = link_kernel_rows(lut, pa.table({"url": urls, "text": texts}))
    assert kernel == link_spec_rows(lut, urls, texts)
    assert [r[1:5] for r in kernel.elements() if r[0] == "triple"] == [
        ("e4", "links_to", "e3", "u0"),
        (None, DEAD_LETTER, "e3", "u1"),
        (None, DEAD_LETTER, "e3", "u2"),
    ]

    cand = ray.data.from_arrow(
        pa.table(
            {
                "subj": pa.array([None, "s"], type=pa.string()),
                "pred": pa.array([DEAD_LETTER, "links_to"], type=pa.string()),
                "obj": pa.array(["e3", "e4"], type=pa.string()),
                "evidence_url": pa.array(["u1", "u2"], type=pa.string()),
            }
        )
    )
    stats = dead_letter_stats(cand)
    assert stats["n"][0].as_py() == 1


def test_reachable_join_path_equals_broadcast_path(monkeypatch):
    """VERDICT r2 #3: with broadcast_threshold=0 every frontier/visited set
    exceeds the threshold, so the whole BFS runs on bucketed semi/anti
    joins with nothing collected to the driver mid-loop — and must equal
    the broadcast fast path and a single-process BFS exactly.  At 100 the
    edge pairs pass the threshold but the visited set does not, so every
    hop is its own drain, still with no exchange."""
    import random

    import pandas as pd
    import ray.data

    from clangd_to_neo4j_ray.stages.graph_algo import reachable_from

    rng = random.Random(5)
    nodes = [f"n{i:03d}" for i in range(60)]
    edges = [
        (nodes[rng.randrange(60)], nodes[rng.randrange(60)]) for _ in range(120)
    ]
    # ensure a long chain so several hops happen
    edges += [(nodes[i], nodes[i + 1]) for i in range(0, 8)]
    df = pd.DataFrame(edges, columns=["src", "dst"])
    ds = ray.data.from_pandas(df)

    # single-process reference BFS
    adj: dict[str, set] = {}
    for s, d in edges:
        adj.setdefault(s, set()).add(d)
    exp = {"n000": 0}
    frontier = {"n000"}
    hop = 0
    while frontier and hop < 25:
        hop += 1
        nxt = set()
        for f in frontier:
            nxt |= adj.get(f, set())
        frontier = nxt - set(exp)
        for n in frontier:
            exp[n] = hop

    got_join = reachable_from(ds, {"n000"}, broadcast_threshold=0)
    got_bcast = reachable_from(ds, {"n000"}, broadcast_threshold=10**6)
    assert got_join == exp
    assert got_bcast == exp

    assert len(exp) <= 100 < len(set(edges))

    def refuse(self, *args, **kwargs):
        raise AssertionError("exchange on the per-hop drain path")

    for name in ("groupby", "sort", "repartition", "random_shuffle", "unique", "join"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse)
    assert reachable_from(ds, {"n000"}, broadcast_threshold=100) == exp


def test_connected_components_multi_component_both_paths():
    """A 3-component graph (chain, triangle+pendant, isolated self-loop):
    labels must be each component's min name, identical on the driver
    union-find fast path and the forced distributed label-propagation
    path (threshold 1)."""
    import pyarrow as pa
    import ray.data

    from clangd_to_neo4j_ray.stages.graph_algo import connected_components_ds

    edges = [
        ("b", "a"), ("b", "c"), ("c", "d"),          # chain a-b-c-d
        ("x", "y"), ("y", "z"), ("z", "x"), ("z", "w"),  # triangle + pendant
        ("m", "m"),                                   # self-loop
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], type=pa.string()),
                "dst": pa.array([e[1] for e in edges], type=pa.string()),
            }
        )
    )
    expected = {
        "a": "a", "b": "a", "c": "a", "d": "a",
        "x": "w", "y": "w", "z": "w", "w": "w",
        "m": "m",
    }
    for thr in (100_000, 1):  # fast path, then forced label propagation
        out = connected_components_ds(ds, broadcast_threshold=thr).to_pandas()
        got = dict(zip(out["node"], out["label"]))
        assert got == expected, (thr, got)


def test_pagerank_star_graph_both_paths():
    """Star graph (spokes -> hub): the hub must outrank every spoke, ranks
    must be identical on the driver fast path and the forced distributed
    path, and the integer arithmetic must match a hand computation."""
    import pyarrow as pa
    import ray.data

    from clangd_to_neo4j_ray.stages.graph_algo import (
        PR_ITERS,
        PR_SCALE,
        pagerank_ds,
    )

    spokes = [f"s{i}" for i in range(4)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(spokes, type=pa.string()),
                "dst": pa.array(["hub"] * 4, type=pa.string()),
            }
        )
    )
    # hand-rolled reference of the exact integer recurrence
    n = 5
    init = PR_SCALE // n
    tele = (15 * init) // 100
    pr = {x: init for x in spokes + ["hub"]}
    for _ in range(PR_ITERS):
        nxt = {}
        for x in spokes + ["hub"]:
            s = sum(pr[sp] // 1 for sp in spokes) if x == "hub" else 0
            nxt[x] = tele + (85 * s) // 100
        pr = nxt
    for thr in (100_000, 1):
        out = pagerank_ds(ds, broadcast_threshold=thr).to_pandas()
        got = dict(zip(out["node"], out["pr_scaled"]))
        assert got == pr, (thr, got, pr)
    assert pr["hub"] > pr["s0"]


def test_connected_components_chain_converges_logarithmically():
    """A 64-node path graph under the forced distributed path with
    max_rounds=10: plain min-propagation would need ~63 rounds, so this
    passing proves the pointer-jumping (label-of-label) chase gives
    O(log n) convergence; non-convergence raises rather than returning
    partial labels."""
    import pyarrow as pa
    import ray.data

    from clangd_to_neo4j_ray.stages.graph_algo import connected_components_ds

    n = 64
    names = [f"n{i:03d}" for i in range(n)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(names[:-1], type=pa.string()),
                "dst": pa.array(names[1:], type=pa.string()),
            }
        )
    )
    out = connected_components_ds(
        ds, broadcast_threshold=1, max_rounds=10
    ).to_pandas()
    assert set(out["label"]) == {"n000"}
    assert len(out) == n


def test_connected_components_max_rounds_raises():
    """The 64-node path graph needs more than two rounds on the forced
    distributed path, so ``max_rounds=2`` raises instead of returning
    partial labels."""
    from clangd_to_neo4j_ray.stages.graph_algo import connected_components_ds

    names = [f"n{i:03d}" for i in range(64)]
    ds = ray.data.from_arrow(pa.table({"src": names[:-1], "dst": names[1:]}))
    with pytest.raises(RuntimeError, match="did not converge in 2 rounds"):
        connected_components_ds(ds, broadcast_threshold=1, max_rounds=2)


def test_connected_components_delta_rounds_shrink_edge_input():
    """Delta rounds (VERDICT r4 next #4): on a chain plus a large
    already-converged clique-free blob (star), the contribution join's
    per-round input edge count must be full |und| on round 1 and then
    strictly smaller in later rounds as nodes stop changing; the labels
    stay exact."""
    import pyarrow as pa
    import ray.data

    from clangd_to_neo4j_ray.stages.graph_algo import connected_components_ds

    n = 32
    names = [f"c{i:03d}" for i in range(n)]
    # chain c000-..-c031 plus star hub a00 with 40 leaves (converges fast)
    src = names[:-1] + ["a00"] * 40
    dst = names[1:] + [f"leaf{i:02d}" for i in range(40)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(src, type=pa.string()),
                "dst": pa.array(dst, type=pa.string()),
            }
        )
    )
    counts: list[int] = []
    out = connected_components_ds(
        ds, broadcast_threshold=1, max_rounds=12, round_edge_counts=counts
    ).to_pandas()
    labels = dict(zip(out["node"], out["label"]))
    assert all(labels[nm] == "c000" for nm in names)
    assert labels["a00"] == "a00" and labels["leaf00"] == "a00"
    # round 1 sees the full undirected edge set; the star converges after
    # round 1, so every later round's contribution input must be smaller
    assert counts[0] == 2 * len(src)
    assert len(counts) >= 3
    assert all(c < counts[0] for c in counts[1:])
    # and it keeps shrinking toward convergence (monotone non-increasing
    # tail is too strict for pointer jumping; require the last round to be
    # far below the first delta round)
    assert counts[-1] <= counts[1]


def test_triangles_handcrafted_graph():
    """K3 {a,b,c} plus pendant d on c, plus a triangle-free star at e:
    exact counts, degrees, and permille coefficients; direction and
    duplicate edges must not matter.  Driver and distributed paths must
    agree (threshold 0 forces the distributed plan)."""
    from clangd_to_neo4j_ray.stages.graph_algo import triangles_ds

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": ["a", "b", "a", "c", "c", "e", "e", "b"],
                "dst": ["b", "c", "c", "d", "a", "x", "y", "a"],
            }
        )
    )
    for thr in (100_000, 0):
        out = {
            r["node"]: (
                r["degree"], r["n_triangles"], r["clustering_permille"]
            )
            for r in triangles_ds(ds, broadcast_threshold=thr).take_all()
        }
        _check_triangle_fixture(out)


def _check_triangle_fixture(out):
    assert out["a"] == (2, 1, 1000)
    assert out["b"] == (2, 1, 1000)
    # c has degree 3 (a, b, d): 1 triangle of 3 possible pairs -> 333
    assert out["c"] == (3, 1, 333)
    assert out["d"] == (1, 0, 0)
    assert out["e"] == (2, 0, 0)
    assert out["x"] == (1, 0, 0)


def test_triangles_self_loops_dropped():
    from clangd_to_neo4j_ray.stages.graph_algo import triangles_ds

    ds = ray.data.from_arrow(
        pa.table({"src": ["a", "a", "b"], "dst": ["a", "b", "c"]})
    )
    for thr in (100_000, 0):
        out = {
            r["node"]: r["n_triangles"]
            for r in triangles_ds(ds, broadcast_threshold=thr).take_all()
        }
        assert out == {"a": 0, "b": 0, "c": 0}


def _triangle_census(pairs) -> dict[str, tuple[int, int, int]]:
    """Plain-Python (degree, n_triangles, clustering_permille) per node of
    the undirected simple graph of ``pairs``: a node's triangles are the
    pairs of its neighbours that are themselves adjacent."""
    from itertools import combinations

    adj: dict[str, set[str]] = {}
    for u, v in pairs:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    out = {}
    for n, nbrs in adj.items():
        d = len(nbrs)
        t = sum(y in adj[x] for x, y in combinations(sorted(nbrs), 2))
        out[n] = (d, t, (2000 * t) // (d * (d - 1)) if d >= 2 else 0)
    return out


def test_triangles_multi_block_graph_both_paths():
    """About 300 nodes and 1,500 edge rows in 10 blocks: dense 10-node
    communities (many triangles), three hubs joined to a quarter of the
    graph, random cross edges, and duplicate, reversed and self-loop
    rows.  Node names hash to bucket ranges independently, so with 4
    exchange partitions (conftest's Ray has 4 CPUs) about three wedges in
    four close in another range than the one they open in.  The driver kernel and the
    supersteps (threshold 0) must both equal the plain-Python census."""
    import random

    from clangd_to_neo4j_ray.stages.graph_algo import triangles_ds

    rng = random.Random(15)
    nodes = [f"v{i:03d}" for i in range(300)]
    pairs = [
        (c[i], c[j])
        for c in (nodes[k : k + 10] for k in range(0, 300, 10))
        for i in range(10)
        for j in range(i + 1, 10)
        if rng.random() < 0.4
    ]
    for hub in ("v007", "v123", "v250"):
        pairs += [(hub, n) for n in rng.sample(nodes, 75)]
    pairs += [tuple(rng.sample(nodes, 2)) for _ in range(400)]
    pairs += rng.sample(pairs, 150)  # duplicates
    pairs += [(v, u) for u, v in rng.sample(pairs, 150)]  # reversed
    pairs += [(n, n) for n in rng.sample(nodes, 20)]  # self-loops
    rng.shuffle(pairs)
    t = pa.table({"src": [u for u, _ in pairs], "dst": [v for _, v in pairs]})
    cuts = [len(pairs) * i // 10 for i in range(11)]
    ds = ray.data.from_arrow([t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])
    want = _triangle_census(pairs)
    assert ds.num_blocks() == 10 and len(pairs) >= 1_400 and len(want) == 300
    assert sum(t_ for _, t_, _ in want.values()) >= 300  # corners of >= 100 triangles
    for thr in (100_000, 0):
        got = {
            r["node"]: (r["degree"], r["n_triangles"], r["clustering_permille"])
            for r in triangles_ds(ds, broadcast_threshold=thr).take_all()
        }
        assert got == want, thr


def test_kg_triangles_matches_oracle(sf_dir):
    """The entity co-occurrence census equals the 3-way self-join oracle."""
    from clangd_to_neo4j_ray.stages.graph_algo import ORACLE_SQL, kg_triangles

    from .util import assert_matches_oracle

    assert_matches_oracle(kg_triangles(sf_dir), ORACLE_SQL["kg_triangles"], sf_dir)


def test_hits_both_paths_agree():
    """HITS: forced-distributed path (threshold 0) must equal the driver
    numpy kernel bit-for-bit; hub/authority ordering sanity on a small
    bipartite graph (h1 links to both authorities, h2 to one)."""
    from clangd_to_neo4j_ray.stages.graph_algo import hits_ds

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": ["h1", "h1", "h2"],
                "dst": ["a1", "a2", "a1"],
            }
        )
    )
    drv = {
        r["node"]: (r["auth_scaled"], r["hub_scaled"])
        for r in hits_ds(ds).take_all()
    }
    dist = {
        r["node"]: (r["auth_scaled"], r["hub_scaled"])
        for r in hits_ds(ds, broadcast_threshold=0).take_all()
    }
    assert drv == dist
    assert drv["a1"][0] > drv["a2"][0] > 0
    assert drv["h1"][1] > drv["h2"][1] > 0
    assert drv["h1"][0] == 0 and drv["a1"][1] == 0  # pure hub / authority


def test_weighted_pagerank_both_paths_and_weight_sensitivity():
    """Forced-distributed weighted PageRank equals the driver kernel
    bit-for-bit; unequal multiplicities must break the symmetry the
    unweighted rank would keep (s->a has 3 links, s->b has 1)."""
    from clangd_to_neo4j_ray.stages.graph_algo import (
        pagerank_ds,
        pagerank_weighted_ds,
    )

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": ["s", "s"],
                "dst": ["a", "b"],
                "w": [3, 1],
            }
        )
    )
    drv = {
        r["node"]: r["pr_scaled"] for r in pagerank_weighted_ds(ds).take_all()
    }
    dist = {
        r["node"]: r["pr_scaled"]
        for r in pagerank_weighted_ds(ds, broadcast_threshold=0).take_all()
    }
    assert drv == dist
    assert drv["a"] > drv["b"]  # 3x the link mass
    unw = {r["node"]: r["pr_scaled"] for r in pagerank_ds(ds).take_all()}
    assert unw["a"] == unw["b"]  # unweighted rank ignores multiplicity


def test_weighted_pagerank_multi_edges_sum():
    """Duplicate (src, dst) input rows aggregate their weights before the
    rank — 1+2 on one edge equals a single 3-weight edge."""
    from clangd_to_neo4j_ray.stages.graph_algo import pagerank_weighted_ds

    dup = ray.data.from_arrow(
        pa.table(
            {"src": ["s", "s", "s"], "dst": ["a", "a", "b"], "w": [1, 2, 1]}
        )
    )
    single = ray.data.from_arrow(
        pa.table({"src": ["s", "s"], "dst": ["a", "b"], "w": [3, 1]})
    )
    a = {r["node"]: r["pr_scaled"] for r in pagerank_weighted_ds(dup).take_all()}
    b = {
        r["node"]: r["pr_scaled"]
        for r in pagerank_weighted_ds(single).take_all()
    }
    assert a == b


def test_personalized_pagerank_both_paths_and_reachability():
    """Forced-distributed PPR equals the driver kernel bit-for-bit; mass
    concentrates at the seed, flows only along edges reachable from it,
    and a disconnected component ranks exactly 0."""
    from clangd_to_neo4j_ray.stages.graph_algo import pagerank_personalized_ds

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": ["s", "a", "x"],
                "dst": ["a", "b", "y"],
            }
        )
    )
    drv = {
        r["node"]: r["pr_scaled"]
        for r in pagerank_personalized_ds(ds, ["s"]).take_all()
    }
    dist = {
        r["node"]: r["pr_scaled"]
        for r in pagerank_personalized_ds(
            ds, ["s"], broadcast_threshold=0
        ).take_all()
    }
    assert drv == dist
    assert drv["s"] > drv["a"] > drv["b"] > 0
    assert drv["x"] == 0 and drv["y"] == 0  # not reachable from the seed


def test_personalized_pagerank_rejects_seeds_outside_graph():
    """No seed in the graph raises on the driver kernel and on the
    distributed path alike, instead of returning an all-zero ranking."""
    from clangd_to_neo4j_ray.stages.graph_algo import pagerank_personalized_ds

    ds = ray.data.from_arrow(pa.table({"src": ["s", "a"], "dst": ["a", "b"]}))
    for threshold in ({}, {"broadcast_threshold": 0}):
        with pytest.raises(ValueError, match="no seed"):
            pagerank_personalized_ds(ds, ["nope", "zz"], **threshold).take_all()


def _int_edges():
    """Integer endpoints with a duplicate edge (1->2 twice), a self-loop
    (3->3), a 3-cycle and a second component (5->6)."""
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([1, 1, 2, 3, 3, 5], type=pa.int64()),
                "dst": pa.array([2, 2, 3, 3, 1, 6], type=pa.int64()),
                "w": pa.array([1, 2, 1, 4, 1, 3], type=pa.int64()),
            }
        )
    )


def test_components_edge_cases_both_paths():
    """Duplicate edges, a self-loop and int endpoints (cast to string):
    the drained union-find equals the forced distributed path exactly."""
    from clangd_to_neo4j_ray.stages.graph_algo import connected_components_ds

    ds = _int_edges()
    drained, distributed = (
        {
            (r["node"], r["label"])
            for r in connected_components_ds(ds, broadcast_threshold=t).take_all()
        }
        for t in (100_000, 1)
    )
    assert drained == distributed
    assert drained == {("1", "1"), ("2", "1"), ("3", "1"), ("5", "5"), ("6", "5")}


def test_pagerank_edge_cases_both_paths():
    """Duplicate edges, a self-loop and int endpoints: every PageRank
    variant's drained kernel equals its forced distributed path exactly;
    the unweighted rank counts the duplicate edge once (hand reference),
    and a personalized seed list with one non-node seed keeps the other."""
    from clangd_to_neo4j_ray.stages.graph_algo import (
        PR_ITERS,
        PR_SCALE,
        pagerank_ds,
        pagerank_personalized_ds,
        pagerank_weighted_ds,
    )

    ds = _int_edges()
    pairs = {("1", "2"), ("2", "3"), ("3", "3"), ("3", "1"), ("5", "6")}
    nodes = {n for p in pairs for n in p}
    outdeg = {n: sum(s == n for s, _ in pairs) for n in nodes}
    init = PR_SCALE // len(nodes)
    ref = dict.fromkeys(nodes, init)
    for _ in range(PR_ITERS):
        acc = dict.fromkeys(nodes, 0)
        for s, d in pairs:
            acc[d] += ref[s] // outdeg[s]
        ref = {n: (15 * init) // 100 + (85 * acc[n]) // 100 for n in nodes}
    for query, expected in (
        (lambda **kw: pagerank_ds(ds, **kw), ref),
        (lambda **kw: pagerank_weighted_ds(ds, **kw), None),
        (lambda **kw: pagerank_personalized_ds(ds, ["1", "zz"], **kw), None),
    ):
        drained, distributed = (
            {r["node"]: r["pr_scaled"] for r in query(broadcast_threshold=t).take_all()}
            for t in (100_000, 0)
        )
        assert drained == distributed
        assert set(drained) == nodes
        assert expected is None or drained == expected


def test_reachable_edge_cases_both_paths():
    """Duplicate edges and a self-loop reach each node once at its first
    hop; a seed that is no node of the graph is reached at hop 0 alone;
    int endpoints come back as ints; a typed 0-row edge table reaches the
    seeds alone.  The drained pairs (100 000), the per-hop drains turning
    bucketed mid-BFS (3: the 4 distinct pairs pass it) and the forced
    bucketed hops (0) agree exactly."""
    src, dst = ["a", "a", "b", "b", "c"], ["b", "b", "b", "c", "a"]
    ids = {"a": 1, "b": 2, "c": 3}
    strs = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    ints = ray.data.from_arrow(
        pa.table({"src": [ids[n] for n in src], "dst": [ids[n] for n in dst]})
    )
    empty = ray.data.from_arrow(
        pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
    )
    for ds, seeds, expected in (
        (strs, {"a"}, {"a": 0, "b": 1, "c": 2}),
        (strs, {"zz"}, {"zz": 0}),
        (strs, {"c", "zz"}, {"c": 0, "zz": 0, "a": 1, "b": 2}),
        (ints, {1}, {1: 0, 2: 1, 3: 2}),
        (ints, {3, 99}, {3: 0, 99: 0, 1: 1, 2: 2}),
        (empty, {1}, {1: 0}),
    ):
        for threshold in (100_000, 3, 0):
            got = reachable_from(ds, seeds, broadcast_threshold=threshold)
            assert got == expected, (seeds, threshold, got)
            assert all(type(n) is type(next(iter(seeds))) for n in got)


def test_reachable_hop_cap_warns_on_every_path(caplog):
    """A 30-node chain run to the default cap stops at hop 25 with one
    node on the frontier: one WARNING says so on the drained-pairs path
    (100 000), the per-hop drains (28) and the per-hop drains turning
    bucketed at hop 25 (24).  An explicit ``max_hops`` stays quiet."""
    import logging

    from clangd_to_neo4j_ray.stages import graph_algo

    def warnings() -> list[str]:
        return [
            r.getMessage()
            for r in caplog.records
            if r.name == graph_algo.__name__ and r.levelno == logging.WARNING
        ]

    chain = [f"n{i:02d}" for i in range(30)]
    ds = ray.data.from_arrow(pa.table({"src": chain[:-1], "dst": chain[1:]}))
    expected = {n: i for i, n in enumerate(chain[:26])}
    for threshold in (100_000, 28, 24):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            got = reachable_from(ds, {"n00"}, broadcast_threshold=threshold)
        assert got == expected, threshold
        msgs = warnings()
        assert len(msgs) == 1, (threshold, msgs)
        assert "MAX_HOPS=25" in msgs[0] and "1 node(s)" in msgs[0], msgs
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert reachable_from(ds, {"n00"}, max_hops=25) == expected
    assert not warnings()
