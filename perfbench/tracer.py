"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into each
layer of the program (name, start, end, parent, trace id), kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; a span opened with no parent starts a new trace."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trace_id += 1
        rec = {
            "id": len(self.spans),
            "trace": self._trace_id,
            "parent": parent,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def with_self_time(self) -> list[dict]:
        """Spans plus ``self_s``: duration minus the time covered by children
        (children of one span run one after another, never overlapping)."""
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + (
                    rec["end"] - rec["start"]
                )
        out = []
        for rec in self.spans:
            dur = (rec["end"] or rec["start"]) - rec["start"]
            out.append({**rec, "self_s": dur - child_time.get(rec["id"], 0.0)})
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.with_self_time(), f, indent=1)
