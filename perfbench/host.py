"""Host speed and CPU steal, and figures corrected for them.

A shared host runs this code at a speed that drifts, in two ways.  It
runs it slower per CPU-second: on a shared 2-vCPU Linux VM, whole runs
of ``replay`` went 30-60 % faster or slower for minutes at a time
while CPU time tracked wall time.  And the hypervisor takes CPU away
(``steal`` in ``/proc/stat``): 0.4 to 11 CPU-seconds over single 25 s
``wire`` runs, which moved its closed-loop rate by up to 2x.

A fixed pure-Python loop, sampled on every CPU right before each
measurement (each timed call, wire segment or set-up), tracks the
first: over a 3-minute series of ``replay`` calls, the spread (IQR /
median) of 15 s medians fell from 0.19 raw to 0.08 once each call was
scaled by the loop's speed just before it.  The share of wanted CPU
time the hypervisor gave during the measurement corrects for the
second.

So every gated figure is *without steal at the reference host speed*:
a measured duration is multiplied, and a rate divided, by that share
and by ``speed / REFERENCE_SPEED``.  A figure is the median of the
corrected measurements.  Every run also reports the raw figures.
"""

from __future__ import annotations

import os
import time
from typing import Tuple

#: Loop iterations per CPU-second the gated figures are scaled to
#: (about the slower of the build host's usual speeds).
REFERENCE_SPEED = 7.0e6
#: Iterations of one sample on one CPU (about 30 ms).
SAMPLE_LOOPS = 200_000


def speed() -> float:
    """Iterations per CPU-second of a fixed pure-Python loop, averaged
    over the CPUs this process may use.

    Each CPU is sampled in turn with the calling thread pinned to it:
    the CPUs drift apart (samples taken side by side correlated at
    0.4), and the work being measured runs on all of them.  Thread CPU
    time, not wall time, so a sample taken while another thread or
    process has the CPU still reads the host's speed.
    """
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            started = time.thread_time()
            acc = 0
            for i in range(SAMPLE_LOOPS):
                acc = (acc + i * i) % 1_000_003
            samples.append(SAMPLE_LOOPS / (time.thread_time() - started))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


def cpu_accounts() -> Tuple[float, float]:
    """(ran, stolen): CPU seconds this machine's CPUs have spent running
    anything, and CPU seconds the hypervisor ran something else while
    they wanted to run (``steal``), summed over CPUs since boot, from
    ``/proc/stat`` (10 ms ticks); zeros where the kernel does not
    report them.  The loop above cannot see steal: it counts CPU time.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
        user, nice, system, _, _, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


def unstolen_share(before: Tuple[float, float],
                   after: Tuple[float, float]) -> float:
    """Share of the CPU time wanted between two :func:`cpu_accounts`
    readings that the hypervisor gave: 1 without steal.

    If steal takes the same share of every runnable moment, a
    measurement would have lasted this share of its wall time on a
    host without steal, however many CPUs it kept busy.
    """
    ran = after[0] - before[0]
    stolen = after[1] - before[1]
    return ran / (ran + stolen) if ran > 0 else 1.0


def time_factor(host_speed: float, unstolen: float) -> float:
    """What a measured duration is multiplied by, and a rate divided
    by, for the figure on a host without steal at ``REFERENCE_SPEED``."""
    return unstolen * host_speed / REFERENCE_SPEED
