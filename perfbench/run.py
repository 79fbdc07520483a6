#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its report.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and explained in perfbench/README.md.
The run happens in a worker process in its own process group, so the Ray
processes it starts can all be stopped, also when an operation hangs.  The
last stdout line is one compact JSON object (correct, attempted, failed,
metrics); the full result, the worker's log and, for a traced run, the spans
are written under ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.report import compact_line, load_spec  # noqa: E402

# The runner must finish within 180 s; leave room to stop Ray afterwards.
WORKER_DEADLINE_S = 165.0
STOP_WAIT_S = 10.0


def stop_group(pgid: int) -> None:
    """Kill every process left in the worker's process group and wait until
    the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + STOP_WAIT_S
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; one of {names}")
    if not os.path.isdir(os.path.join(ROOT, "clangd_to_neo4j_ray")):
        print("perfbench: the clangd_to_neo4j_ray package is missing", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench")
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(results, f"{tag}.json")
    spans_path = os.path.join(results, f"{tag}-spans.json")
    log_path = os.path.join(results, f"{tag}.log")
    for stale in (result_path, spans_path):
        if os.path.exists(stale):
            os.remove(stale)

    # Ray's task-event and metrics reporting load the one CPU more with every
    # task a session has run, so later operations of a run read slower: off.
    # Usage-stats reporting would try to reach an outside host: off.
    # Ray keeps at most num_cpus idle workers and kills the rest after a
    # second; a build needs more, so each one restarted a varying number of
    # worker processes (about 1.5 CPU s each).  Keeping five idle workers
    # makes every operation start from the same warm pool.
    env = dict(
        os.environ, PYTHONPATH=ROOT, POLARS_MAX_THREADS="1", OMP_NUM_THREADS="1",
        RAY_task_events_report_interval_ms="0", RAY_enable_metrics_collection="0",
        RAY_USAGE_STATS_ENABLED="0", RAY_num_workers_soft_limit="5",
    )  # fmt: skip
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--result", result_path, "--spans", spans_path,
    ]  # fmt: skip
    overran = False
    with open(log_path, "w") as log:
        worker = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            worker.wait(timeout=WORKER_DEADLINE_S)
        except subprocess.TimeoutExpired:
            overran = True
        finally:
            stop_group(worker.pid)
            worker.wait()

    if os.path.exists(result_path):
        with open(result_path) as f:
            result = json.load(f)
    elif overran:
        # a hang outside any timed operation: the run failed, it did not crash
        result = {"failures": [f"worker overran {WORKER_DEADLINE_S:.0f} s"], "metrics": {}}
    else:
        print(f"perfbench: no result; see {log_path}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in sorted(result["metrics"].items()):
        print(f"{args.workload} {name} = {value:.6g}")
    wall = result.get("details", {}).get("latency_p50_s")
    if wall is not None:
        print(f"{args.workload} latency_p50_s (wall clock, unbounded) = {wall:.6g}")
    print(compact_line(result, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
