"""Timing corrected for the speed of a shared host.

On a shared machine the same single-threaded code runs up to twice as
slow from one minute to the next. Two things cause it: the process is
descheduled while other work runs, and while it runs, other tenants on the
same cores slow it down. Over ten runs of the ``ci`` workload on a 2-vCPU
shared VM the spread of plain wall times was 20 to 33% of the median, and
a 0.3 s ``cmd_evaluate`` spread by 30 to 50% between moments of one run,
wider than any useful regression bound.

Every benchmark process is single-threaded (one BLAS thread, one harness
worker), so its CPU time (user plus system, ``time.process_time``) is the
time its work takes when it has a core to itself, and it leaves out the
time the process waits for one. ``SpeedClock`` corrects that CPU time for
the slowdown while running: a timer signal runs a fixed kernel every
``TICK_INTERVAL`` seconds in the measured process, between the benchmark's
own bytecodes. The kernel does the two kinds of work that dominate this
package on small inputs, half each: NumPy calls on 3-vectors, and parsing a
small JSON document into dicts. Over 90 ``cmd_evaluate`` calls on that VM,
CPU time divided by the CPU time of a NumPy-only kernel spread 2 to 10%
between blocks of calls, wall time 22 to 32%; over five alternating pairs
of ``ci`` runs, this kernel left the long phases 2 to 3% apart (IQR over
median) where the NumPy-only kernel left 4 to 7%.

An interval's corrected time is its CPU time minus the ticks inside it,
scaled by ``NOMINAL_KERNEL_S`` over the mean kernel CPU time of the ticks
around it: the seconds it would take on a host that runs the kernel in
``NOMINAL_KERNEL_S``. ``NOMINAL_KERNEL_S`` only sets the scale and must
not change between the commits being compared. An interval known only by
its wall times (the harness's own per-sample timings) is corrected the
same way with wall times throughout.

The correction tracks the kernel, not every kind of code alike, and the
two vCPUs of that VM were often at different speeds at the same moment
(the kernel took 1.3 ms on one and 2.2 ms on the other). A process tends to
stay on one CPU, so a short call repeated in one process kept that CPU's
speed: ``on_cpu`` pins the process to each CPU in turn, so that repeated
short work is sampled on every CPU alike.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
from contextlib import contextmanager
from time import perf_counter, process_time

import numpy as np

KERNEL_LOOPS = 500
KERNEL_DOCS = 12
NOMINAL_KERNEL_S = 0.0025
TICK_INTERVAL = 0.1
# Ticks this close to an interval also describe the host's speed during it.
WINDOW_S = 0.5


_ALLOWED = frozenset(os.sched_getaffinity(0))
_A = np.array([0.3, 0.1, 0.7])
_B = np.array([0.2, 0.5, 0.1])


_DOC = json.dumps([{"u": i, "v": (i * 7) % 64, "length": i / 7.0} for i in range(64)])


def kernel() -> float:
    total = 0.0
    for _ in range(KERNEL_LOOPS):
        total += float(np.dot(_A, _B - _A))
    for _ in range(KERNEL_DOCS):
        by_vertex: dict[int, list[float]] = {}
        for edge in json.loads(_DOC):
            by_vertex.setdefault(edge["v"], []).append(edge["length"])
        total += sum(sorted(sum(v) for v in by_vertex.values()))
    return total


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, when it is not pinned by ``on_cpu``."""
    return sorted(_ALLOWED)


@contextmanager
def on_cpu(cpu: int | None):
    """Pin the process to ``cpu`` inside the block (no-op for None)."""
    if cpu is None:
        yield
        return
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, _ALLOWED)


def stamp() -> tuple[float, float]:
    """(wall, CPU) seconds now, for ``SpeedClock.seconds``."""
    return perf_counter(), process_time()


class SpeedClock:
    """Context manager that samples the host's speed while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start, cpu = stamp()
        kernel()
        end, cpu_end = stamp()
        self.starts.append(start)
        self.walls.append(end - start)
        self.cpus.append(cpu_end - cpu)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL, TICK_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float, c0: float | None = None, c1: float | None = None) -> float:
        """Corrected duration of the interval [t0, t1] of ``perf_counter``,
        from the CPU times ``c0``, ``c1`` of ``process_time`` at its ends,
        or from its wall time where they are not given."""
        ticks = self.walls if c0 is None else self.cpus
        spent = t1 - t0 if c0 is None else c1 - c0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(ticks[lo:hi])
        near_lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        near_hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if near_lo == near_hi:  # no tick near: take the closest one
            near_lo = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - t0))
            near_hi = near_lo + 1
        speed = sum(ticks[near_lo:near_hi]) / (near_hi - near_lo)
        return (spent - inside) * NOMINAL_KERNEL_S / speed
