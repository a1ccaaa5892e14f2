"""Host speed, measured with a fixed kernel that does not use qminv.

The benchmark's host is a shared VM.  Load from other tenants slows all the
code on a vCPU together, by up to 1.85x, and switches on and off from
fractions of a second to whole minutes.  No estimator taken from qminv's own
timings alone can tell such a period from a slower program.

So the benchmark also times ``kernel`` -- pure-Python code of the same kind
as qminv's (Fraction arithmetic on growing denominators, small-integer
enumeration, tuple and dict churn) -- between operations, all through a run,
on the same vCPU (``pin``).  Each timed operation is scaled by
``NOMINAL_NS`` over the kernel's time around it (``HostSpeed.scale``), so it
reads as on a host where the kernel takes ``NOMINAL_NS``.  Under load the
kernel and qminv's operations slow by about the same factor (1.8x at the
median on the first host), so the load cancels out.  The kernel never runs
qminv, so a change to qminv moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import bisect
import itertools
import os
import statistics
import time
from fractions import Fraction

# About the kernel's time on an unloaded vCPU of the host the first results came from.
NOMINAL_NS = 530_000
# Sample the kernel before an operation once this long has passed since the last sample.
INTERVAL_NS = 20_000_000
# An operation is scaled by the median of this many samples on either side of its start.
NEIGHBOURS = 2


def kernel() -> int:
    """About half a millisecond of qminv-like work on an unloaded host; returns a checksum."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1 if i % 3 else -2, i * (i + 1))
    count = 0
    for parts in itertools.product(range(7), repeat=4):
        if sum(parts) == 9:
            count += 1
    table: dict[tuple[int, int], int] = {}
    for i in range(600):
        key = (i % 17, i % 29)
        table[key] = table.get(key, 0) + i
    return total.denominator % 1_000_003 + count + len(table)


EXPECTED = kernel()


def pin() -> int:
    """Keep this process, and every process it starts, on one vCPU; returns it.

    The vCPUs are slowed independently, so the kernel only measures the
    speed an operation saw if both ran on the same one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Kernel samples, each with the time it started, taken while a run goes on."""

    def __init__(self):
        self.starts_ns: list[int] = []
        self.samples_ns: list[int] = []
        self._last = 0

    def sample(self) -> int:
        clock = time.perf_counter_ns
        start = clock()
        checksum = kernel()
        self._last = clock()
        if checksum != EXPECTED:
            raise RuntimeError("host-speed kernel gave a different checksum")
        self.starts_ns.append(start)
        self.samples_ns.append(self._last - start)
        return self._last - start

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() - self._last >= INTERVAL_NS:
            self.sample()

    def around_ns(self, start_ns: int) -> float:
        """Median kernel time of the NEIGHBOURS samples before ``start_ns`` and after it."""
        i = bisect.bisect_right(self.starts_ns, start_ns)
        return statistics.median(self.samples_ns[max(0, i - NEIGHBOURS):i + NEIGHBOURS])

    def scale(self, elapsed_ns: int, start_ns: int) -> float:
        """``elapsed_ns`` of an operation that started at ``start_ns``, at the nominal host speed."""
        return elapsed_ns * NOMINAL_NS / self.around_ns(start_ns)
