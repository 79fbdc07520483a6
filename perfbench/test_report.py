"""The benchmark's own tests: report schema, last-line parsing, BENCHMARK.json
limits, the span recorder and the plain-Python references.  No Ray needed.

    python3 perfbench/test_report.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.cpu import GroupCPU  # noqa: E402
from perfbench.report import LINE_KEYS, check_line, compact_line, load_spec  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def full_result(spec: dict, trace: bool, **extra) -> dict:
    metrics = {m["name"]: 1.5 for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, **extra}


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec(ROOT)

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(
            set(s),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_command_stays_in_paths(self):
        for part in self.spec["command"][1:]:
            self.assertFalse(part.startswith("/") or ".." in part.split("/"))
        self.assertTrue(self.spec["command"][1].startswith(self.spec["paths"][0] + "/"))


class LineTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec(ROOT)

    def test_full_run_parses(self):
        for trace in (False, True):
            line = compact_line(full_result(self.spec, trace), self.spec, trace)
            self.assertNotIn("\n", line)
            obj = check_line(line, self.spec, trace)
            self.assertEqual(tuple(obj), LINE_KEYS)
            self.assertTrue(obj["correct"])
            want = {m["name"] for m in self.spec["per_layer" if trace else "end_to_end"]}
            self.assertEqual(set(obj["metrics"]), want)

    def test_details_stay_out_of_the_line(self):
        big = full_result(
            self.spec,
            False,
            failures=["x" * 2000] * 20,
            details={"latencies_s": [0.1] * 100_000},
        )
        big["metrics"]["not_in_spec"] = 3.0
        line = compact_line(big, self.spec, False)
        self.assertLess(len(line), 4096)
        self.assertNotIn("not_in_spec", check_line(line, self.spec, False)["metrics"])

    def test_missing_or_bad_metric_is_incorrect(self):
        r = full_result(self.spec, False)
        r["metrics"].pop("setup_s")
        r["metrics"]["cpu_s_per_op"] = float("nan")
        obj = check_line(compact_line(r, self.spec, False), self.spec, False)
        self.assertFalse(obj["correct"])
        self.assertNotIn("setup_s", obj["metrics"])
        self.assertNotIn("cpu_s_per_op", obj["metrics"])

    def test_failed_setup_still_reports_one_attempt(self):
        obj = check_line(compact_line({}, self.spec, False), self.spec, False)
        self.assertEqual((obj["correct"], obj["attempted"], obj["failed"]), (False, 1, 1))

    def test_failed_op_is_incorrect(self):
        r = full_result(self.spec, False, failed=1)
        self.assertFalse(json.loads(compact_line(r, self.spec, False))["correct"])

    def test_check_line_rejects(self):
        for bad in (
            '{"correct": true}',
            '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 1, "failed": 0,'
            ' "metrics": {"setup_s": {"value": 1, "unit": "ms"}}}',
        ):
            with self.assertRaises(ValueError):
                check_line(bad, self.spec, False)


class RunnerTest(unittest.TestCase):
    def test_without_the_program_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(
                os.path.join(ROOT, "perfbench"),
                os.path.join(d, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "build",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60,
            )  # fmt: skip
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("{", p.stdout)


class GroupCPUTest(unittest.TestCase):
    def test_counts_a_child_that_exits_inside_the_block(self):
        meter = GroupCPU(interval=0.02)
        with meter.measure() as cpu:
            # the child stays in this process group and burns about 0.3 s
            subprocess.run(
                [sys.executable, "-c",
                 "import time\nt = time.process_time()\n"
                 "while time.process_time() - t < 0.3: pass"],
                check=True, timeout=60,
            )  # fmt: skip
        self.assertGreater(cpu["cpu_s"], 0.2)
        self.assertLess(cpu["cpu_s"], 5.0)


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_self_time(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                pass
        with tr.span("next"):
            pass
        spans = tr.with_self_time()
        by = {s["name"]: s for s in spans}
        self.assertIsNone(by["root"]["parent"])
        self.assertEqual(by["a"]["parent"], by["root"]["id"])
        self.assertEqual(by["a"]["trace"], by["root"]["trace"])
        self.assertNotEqual(by["next"]["trace"], by["root"]["trace"])
        root_dur = by["root"]["end"] - by["root"]["start"]
        kids = sum(by[k]["end"] - by[k]["start"] for k in "ab")
        self.assertAlmostEqual(by["root"]["self_s"], root_dur - kids, places=9)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.json")
            tr.write(path)
            with open(path) as f:
                self.assertEqual(len(json.load(f)), 4)


class ReferenceTest(unittest.TestCase):
    """The references outputs are checked against, on hand-solved graphs."""

    def setUp(self):
        try:
            from perfbench import inputs
        except ImportError as e:  # the program package is not importable
            self.skipTest(str(e))
        self.inputs = inputs

    def test_bfs(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]
        self.assertEqual(self.inputs.bfs_reference(edges, "a"), {("a", 0), ("b", 1), ("c", 2)})
        self.assertEqual(self.inputs.bfs_reference(edges, "a", max_hops=1), {("a", 0), ("b", 1)})

    def test_components(self):
        edges = [("b", "a"), ("c", "b"), ("x", "y")]
        self.assertEqual(
            self.inputs.components_reference(edges),
            {("a", "a"), ("b", "a"), ("c", "a"), ("x", "x"), ("y", "x")},
        )

    def test_pagerank_cycle_is_uniform(self):
        pr = dict(self.inputs.pagerank_reference([("a", "b"), ("b", "a"), ("a", "b")], 5, 1000))
        self.assertEqual(pr["a"], pr["b"])

    def test_digest_ignores_row_order(self):
        import pyarrow as pa

        tables = {
            n: pa.table({c: ["1", "2"] for c in cols})
            for n, cols in self.inputs.GRAPH_COLUMNS.items()
        }
        flipped = {n: t.take([1, 0]) for n, t in tables.items()}
        self.assertEqual(self.inputs.digest_tables(tables), self.inputs.digest_tables(flipped))

    def test_precision_recall(self):
        self.assertEqual(self.inputs.precision_recall({1, 2}, {2, 3, 4, 5}), (0.5, 0.25))


if __name__ == "__main__":
    unittest.main()
