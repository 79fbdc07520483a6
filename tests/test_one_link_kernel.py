"""Guard: the link stages run one scan kernel, with no strategy knob.

The token scanner is the only kernel the stages run; the regex scanner is
its test spec.  Alternative kernels selected by a keyword or an environment
variable must not come back."""

from __future__ import annotations

import inspect
import pathlib

import clangd_to_neo4j_ray
from clangd_to_neo4j_ray.stages import linking

REPO = pathlib.Path(clangd_to_neo4j_ray.__file__).resolve().parent.parent
BANNED = ("linking_vec", "linking_ac", "LINK_STRATEGY", "BENCH_STRATEGY")


def test_no_alternative_link_kernel_or_knob():
    files = sorted((REPO / "clangd_to_neo4j_ray").rglob("*.py")) + [REPO / "bench.py"]
    hits = [
        f"{path.relative_to(REPO)}:{n}: {word}"
        for path in files
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for word in BANNED
        if word in line
    ]
    assert hits == []


def test_link_stages_take_no_strategy():
    stages = {
        name: fn
        for name, fn in vars(linking).items()
        if name.endswith("_stage") and inspect.isfunction(fn)
    }
    assert set(stages) >= {"link_scan_stage", "fused_link_partial_stage"}
    for name, fn in stages.items():
        assert "strategy" not in inspect.signature(fn).parameters, name
