"""CPU time of a whole process group over a block of code.

A Ray session is many processes (driver, raylet, GCS, task and actor
workers) in the worker's process group.  Ray reaps the workers it stops
without adding their time to its own, so reading the group's total at the
start and the end would lose every worker that exits in between.  Instead a
sampler thread reads each process's time every ``interval`` seconds, and a
process that exits counts with its last reading (it loses at most one
interval of its time).

The host's other tenants slow a Ray operation down in bursts: while the
hypervisor hands this VM's virtual CPUs to someone else ("steal" in
/proc/stat), Ray's processes spin and wait longer on each other, and an
operation costs up to 70 % more CPU time.  ``measure()`` therefore also
reports the share of the VM's CPU time stolen during the block.
"""

from __future__ import annotations

import contextlib
import os
import threading


def host_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all of this VM's CPUs so far."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:9]]
    # user nice system idle iowait irq softirq steal
    return t[0] + t[1] + t[2] + t[5] + t[6], t[7]


class GroupCPU:
    """CPU seconds (user + system) that the processes of this process group
    spend during a ``measure()`` block."""

    def __init__(self, interval: float = 0.05):
        self.pgid = os.getpgid(0)
        self.interval = interval
        self.tick = os.sysconf("SC_CLK_TCK")
        self._others: set[str] = set()

    def read(self) -> dict[str, int]:
        """Clock ticks used so far by each live process of the group."""
        ticks = {}
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or pid in self._others:
                continue
            try:
                with open(f"/proc/{pid}/stat") as f:
                    # fields after the parenthesised command name
                    fields = f.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[2]) != self.pgid:
                self._others.add(pid)
                continue
            ticks[pid] = int(fields[11]) + int(fields[12])
        return ticks

    @contextlib.contextmanager
    def measure(self):
        """Yields a dict whose ``cpu_s`` (this group's CPU seconds) and
        ``steal_share`` (stolen ÷ busy + stolen ticks of the whole VM) are
        set when the block ends."""
        self._others.clear()
        busy0, steal0 = host_ticks()
        start = self.read()
        last = dict(start)
        stop = threading.Event()

        def sample():
            while not stop.wait(self.interval):
                last.update(self.read())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        box: dict = {}
        try:
            yield box
        finally:
            stop.set()
            sampler.join()
            last.update(self.read())
            box["cpu_s"] = sum(t - start.get(pid, 0) for pid, t in last.items()) / self.tick
            busy, steal = (b - a for a, b in zip((busy0, steal0), host_ticks()))
            box["steal_share"] = steal / (busy + steal) if busy + steal else 0.0
