"""The benchmark's report: the compact last stdout line and its schema.

The last line holds only the metrics named in ``BENCHMARK.json`` (end-to-end
ones for an untraced run, per-layer ones for a traced run), so its size is
bounded by that file; every other detail goes to the side file.
"""

from __future__ import annotations

import json
import math
import os

LINE_KEYS = ("correct", "attempted", "failed", "metrics")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def wanted_metrics(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def compact_line(result: dict, spec: dict, trace: bool) -> str:
    """One-line JSON report.  A metric the run did not produce is left out
    and makes the run incorrect; ``attempted`` is at least 1 because a run
    whose set-up failed attempted its workload and failed it."""
    metrics = {}
    for m in wanted_metrics(spec, trace):
        v = result.get("metrics", {}).get(m["name"])
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    attempted = int(result.get("attempted", 0))
    failed = int(result.get("failed", 0))
    if attempted < 1:
        attempted, failed = 1, max(failed, 1)
    complete = len(metrics) == len(wanted_metrics(spec, trace))
    line = {
        "correct": bool(result.get("correct")) and complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return json.dumps(line, separators=(",", ":"))


def check_line(line: str, spec: dict, trace: bool) -> dict:
    """Parse a last line and check it against the schema; raises ValueError."""
    obj = json.loads(line)
    if tuple(obj) != LINE_KEYS:
        raise ValueError(f"keys {tuple(obj)} != {LINE_KEYS}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool):
            raise ValueError(f"{k} is not a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted < 1")
    units = {m["name"]: m["unit"] for m in wanted_metrics(spec, trace)}
    for name, m in obj["metrics"].items():
        if name not in units or m.get("unit") != units[name]:
            raise ValueError(f"unexpected metric {name}: {m}")
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}: {m}")
    return obj
