#!/usr/bin/env python
"""Kernel-level scaling evidence for BASELINE.md (no Ray).

Runs the link-scan kernel (``LinkScan``, the build's link stage linker) in
N concurrent OS processes over an in-memory dense-page batch and reports
per-process throughput.  Two effects are separable:

- concurrency scaling: per-proc pages/s at N=1 vs N=6 vs N=24 — flat
  per-proc rates mean no hardware wall and no serial stage;
- frequency envelope: ``--spin K`` adds K pure-CPU spinner processes, so
  ``-n 1 --spin 23`` measures the solo kernel at the all-core frequency.
  The delta vs an idle-box solo run is the turbo artifact that inflates
  the raw low leg of ``bench.py --scaling`` (see BASELINE.md).

Usage:
    python scripts/scaling_probe.py -n 1
    python scripts/scaling_probe.py -n 1 --spin 23
    python scripts/scaling_probe.py -n 6
    python scripts/scaling_probe.py -n 24
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

BATCH = 2048
SECONDS = 6.0


def worker(q) -> None:
    os.environ["OMP_NUM_THREADS"] = "1"
    import pyarrow as pa

    from clangd_to_neo4j_ray.sources.fixtures import (
        alias_lookup, generate_pages, make_entities)
    from clangd_to_neo4j_ray.stages.linking import LinkScan

    linker = LinkScan(alias_lookup(make_entities()))
    fx = generate_pages(BATCH, sent_range=(20, 40))
    batch = pa.table({"url": fx.pages["url"], "text": fx.pages["text"]})
    linker(batch)  # warmup
    t0 = time.perf_counter()
    pages = 0
    while time.perf_counter() - t0 < SECONDS:
        linker(batch)
        pages += BATCH
    q.put(pages / (time.perf_counter() - t0))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=1, help="concurrent kernel processes")
    ap.add_argument("--spin", type=int, default=0, help="extra CPU-spinner processes")
    args = ap.parse_args()

    spinners = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"])
        for _ in range(args.spin)
    ]
    try:
        q = mp.Queue()
        procs = [mp.Process(target=worker, args=(q,)) for _ in range(args.n)]
        for p in procs:
            p.start()
        rates = [q.get() for _ in procs]
        for p in procs:
            p.join()
    finally:
        for s in spinners:
            s.kill()
    total = sum(rates)
    print(
        f"procs={args.n} spin={args.spin} total={total:.0f} pages/s "
        f"per-proc mean={total / args.n:.0f} min={min(rates):.0f} max={max(rates):.0f}"
    )


if __name__ == "__main__":
    main()
