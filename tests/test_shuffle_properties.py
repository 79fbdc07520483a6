"""Property-based tests (hypothesis) for the bucketed shuffle engine and the
link kernel's equivalence to its regex spec — the engine's two most
load-bearing custom components."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clangd_to_neo4j_ray.stages.shuffle import distinct, grouped_agg

KEYS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
ROWS = st.lists(
    st.tuples(KEYS, KEYS, st.integers(-1000, 1000)), min_size=1, max_size=200
)

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(rows=ROWS, buckets=st.sampled_from([1, 3, 8]))
@settings(**_SETTINGS)
def test_grouped_sum_matches_pandas(rows, buckets):
    df = pd.DataFrame(rows, columns=["k1", "k2", "v"])
    ds = ray.data.from_pandas(df)
    got = (
        grouped_agg(ds, ["k1", "k2"], {"s": ("v", "sum")}, num_buckets=buckets)
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    exp = (
        df.groupby(["k1", "k2"], as_index=False)["v"]
        .sum()
        .rename(columns={"v": "s"})
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@given(rows=ROWS)
@settings(**_SETTINGS)
def test_grouped_agg_min_max_size(rows):
    df = pd.DataFrame(rows, columns=["k1", "k2", "v"])
    ds = ray.data.from_pandas(df)
    got = (
        grouped_agg(
            ds,
            ["k1"],
            {"mn": ("v", "min"), "mx": ("v", "max"), "n": ("v", "size")},
        )
        .to_pandas()
        .sort_values("k1")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("k1", as_index=False)
        .agg(mn=("v", "min"), mx=("v", "max"), n=("v", "size"))
        .sort_values("k1")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@given(rows=ROWS, buckets=st.sampled_from([1, 4]))
@settings(**_SETTINGS)
def test_distinct_matches_pandas(rows, buckets):
    df = pd.DataFrame(rows, columns=["k1", "k2", "v"])
    ds = ray.data.from_pandas(df)
    got = distinct(ds, ["k1", "k2"], num_buckets=buckets).to_pandas()
    got_set = set(zip(got["k1"], got["k2"]))
    exp_set = set(zip(df["k1"], df["k2"]))
    assert got_set == exp_set
    assert len(got) == len(got_set)  # no duplicates survive


def test_grouped_agg_combines_each_block_before_the_exchange(monkeypatch):
    """``grouped_agg`` and ``distinct`` are two-phase by themselves: a head
    key with 1,000 rows in each of 4 blocks sends at most one row per
    block into the exchange, and the merged result is exact."""
    from collections import Counter

    from clangd_to_neo4j_ray.stages import shuffle

    blocks = [
        pa.table(
            {
                "k": ["head"] * 1000 + [f"tail{b}"],
                "v": list(range(b * 1000, (b + 1) * 1000)) + [-b],
            }
        )
        for b in range(4)
    ]
    rows = [r for t in blocks for r in zip(t["k"].to_pylist(), t["v"].to_pylist())]
    by_key: dict[str, list[int]] = {}
    for k, v in rows:
        by_key.setdefault(k, []).append(v)

    seen: list[Counter] = []
    real_exchange = shuffle.exchange

    def recording_exchange(ds, keys, reducer, num_buckets=None):
        ds = ds.materialize()
        seen.append(Counter(r["k"] for r in ds.take_all()))
        return real_exchange(ds, keys, reducer, num_buckets)

    monkeypatch.setattr(shuffle, "exchange", recording_exchange)
    cases = [
        ({"s": ("v", "sum")}, lambda vs: {"s": sum(vs)}),
        ({"mn": ("v", "min"), "mx": ("v", "max")}, lambda vs: {"mn": min(vs), "mx": max(vs)}),
        ({"n": ("v", "size")}, lambda vs: {"n": len(vs)}),
        ({}, lambda vs: {}),
    ]
    for spec, ref in cases:
        ds = ray.data.from_arrow(blocks)
        out = grouped_agg(ds, ["k"], spec) if spec else distinct(ds, ["k"])
        got = {r["k"]: {c: r[c] for c in spec} for r in out.take_all()}
        assert got == {k: ref(vs) for k, vs in by_key.items()}, spec
        assert seen[-1]["head"] <= len(blocks), (spec, seen[-1])


def test_stable_hash_pinned_values():
    """Bucket assignment must be a PINNED algorithm, not a library hash:
    these exact values must never change across dependency upgrades
    (ADVICE r1: polars .hash is not stable across builds — split key groups
    would be a silent wrong answer)."""
    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.shuffle import _stable_hash64

    got = [int(x) for x in _stable_hash64(pa.array(["", "a", "ab", "New York"]))]
    assert got == [
        0x54348465F85ED6A1,
        0xBA6A19F287D5FCC0,
        0x765EBE269B2F824A,
        0x9471D1AC3B28397F,
    ], [hex(x) for x in got]


def _ref_hash64(s: str) -> int:
    """Pure-Python mirror of the sampled-window hash — the algorithm spec."""
    M = (1 << 64) - 1

    def mix(h):
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & M
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & M
        return h ^ (h >> 31)

    b = s.encode("utf-8")
    n = len(b)
    h = mix(n ^ 0x9E3779B97F4A7C15)
    base = max(n - 8, 0)
    for num, den in ((0, 1), (1, 5), (2, 5), (3, 5), (4, 5), (1, 1)):
        p = (base * num) // den
        word = 0
        for j in range(8):
            if p + j < n:
                word |= b[p + j] << (8 * j)
        h = mix(h ^ ((word * 1099511628211) & M))
    return h


@given(st.lists(st.text(min_size=0, max_size=80), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_stable_hash_matches_reference_spec(strs):
    """The vectorized hash must equal the scalar spec for ANY strings —
    pins the whole algorithm, not just four sample values."""
    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.shuffle import _stable_hash64

    got = [int(x) for x in _stable_hash64(pa.array(strs, type=pa.string()))]
    assert got == [_ref_hash64(s) for s in strs]


def test_stable_hash_bucket_uniformity():
    """The sampled-window hash must spread realistic structured keys
    (entity-triple keys and URLs share long common prefixes) evenly over
    buckets — heavy bucket skew would serialize the exchange reducers."""
    import numpy as np
    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.shuffle import _stable_hash64

    rng = np.random.default_rng(0)
    ij = rng.integers(0, 3000, (100_000, 2))
    keys = [f"ent_{i:06d}\x1fworks_for\x1fent_{j:06d}" for i, j in ij]
    urls = [f"https://d{i % 40:02d}.example.com/p{j:06d}" for i, j in ij]
    for arr in (pa.array(keys), pa.array(urls)):
        h = _stable_hash64(arr)
        counts = np.bincount((h % 32).astype(int), minlength=32)
        assert counts.min() > 0.8 * counts.mean(), counts
        assert counts.max() < 1.2 * counts.mean(), counts


def test_stable_hash_adversarial_midstring_keys():
    """The r2/r3 documented gap, now closed (VERDICT r3 #8): 40-byte keys
    sharing their length and differing ONLY between the old four window
    anchors (e.g. bytes 8-9, 18-20) must spread over >1 bucket — six
    windows tile every byte of keys up to 48 bytes."""
    import numpy as np
    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.shuffle import _stable_hash64

    for pos in (8, 18, 20, 27):
        keys = []
        for i in range(512):
            b = bytearray(b"k" * 40)
            b[pos] = 0x30 + (i % 64)
            b[pos + 1] = 0x30 + (i // 64)
            keys.append(b.decode())
        h = _stable_hash64(pa.array(keys))
        buckets = np.unique(h % 32)
        assert len(buckets) > 1, f"all keys differing at byte {pos} collided"
        # stronger: every distinct key pair differing inside 40 bytes gets a
        # distinct hash with near-certainty; assert no full serialization
        counts = np.bincount((h % 32).astype(int), minlength=32)
        assert counts.max() < len(keys), counts


def test_stable_hash_slice_and_chunk_invariant():
    import pyarrow as pa

    from clangd_to_neo4j_ray.stages.shuffle import _stable_hash64

    strs = ["", "a", "ab", "abc", "key\x1f42", "New York", "x" * 100]
    arr = pa.array(strs, type=pa.string())
    full = list(_stable_hash64(arr))
    assert list(_stable_hash64(arr.slice(2, 4))) == full[2:6]
    chunked = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert list(_stable_hash64(chunked)) == full


# words with edge and inner punctuation, non-ASCII letters, pronoun
# subjects, relation phrases and sentence ends: the inputs on which the link
# kernel must equal the regex spec
WORDS = st.sampled_from(
    [
        "Alpha", "Beta", "Alpha Beta", "Gamma", "The Alpha", "it", "It",
        "works", "for", "for.", "x9", "x.", "links", "to", "(Gamma)",
        '"Alpha"', "Alpha.", "The", "works for", "Alpha,", "Alpha;", "The,",
        '"Alpha', "New", "New,", "York", "New York", "links to",
        "Alpha-Beta", "Alpha's", "Alpha.Beta", "Zürich", "ÄAlpha", "AT&T",
        "AT", "&T", "Corp", "Corp.",
    ]
)


@given(
    sentences=st.lists(
        st.lists(WORDS, min_size=1, max_size=6), min_size=1, max_size=6
    )
)
@example(sentences=[["New,", "York", "is", "big"]])
@example(
    sentences=[
        ["It", "links to", "Gamma"],
        ["The,", "Alpha", "links to", "New York"],
        ['"Alpha', "links", "to", "(Gamma)"],
        ["(Gamma)", "links", "to", "Alpha;"],
        ["It", "links to", "Alpha;"],
    ]
)
@example(sentences=[["Alpha-Beta", "works for", "Zürich"], ["It", "links to", "Corp"]])
@settings(max_examples=60, deadline=None)
def test_token_scan_equals_regex_scan(sentences):
    """For any document of space-joined word sentences, the columnar link
    kernel ``LinkScan`` gives the mention and triple rows (char offsets,
    ``anchored``, pronoun and dead-letter relations) that the regex spec
    ``EntityLinker.link_text`` gives, with the document in one batch beside
    a copy that starts with a space and a copy whose last sentence has no
    ".", each its own row."""
    from .util import link_kernel_rows, link_spec_rows

    lut = {
        "Alpha": "e1",
        "Alpha Beta": "e2",
        "Gamma": "e3",
        "The Alpha": "e4",
        "works": "e5",
        "New York": "e6",
        "York": "e7",
        "AT&T": "e8",
        "Zürich": "e9",
        "Corp": [("e3", "Gamma"), ("e7", "York")],
    }
    text = " ".join(" ".join(words) + "." for words in sentences)
    urls, texts = ["u", "v", "w"], [text, " " + text, text[:-1]]
    batch = pa.table({"url": urls, "text": texts})
    assert link_kernel_rows(lut, batch) == link_spec_rows(lut, urls, texts), text
