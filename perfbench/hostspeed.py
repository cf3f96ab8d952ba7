"""The host's speed, timed between slices of a measured phase.

A shared host changes speed by tens of percent from one second to the
next, and by up to twice between runs a few minutes apart.  The program
slows down together with two kinds of plain interpreter work: work that
stays in the core's own caches (dict and tuple churn, integer
arithmetic, sorting), and lookups scattered over a heap far larger than
them, whose speed depends on what the host's other tenants do to the
shared cache.  So a timed phase is cut into equal slices, and between
slices the benchmark times a *yardstick*: the geometric mean of one
timing of each kind, of fixed work that calls nothing in the program,
with garbage collection off so that the program's heap cannot lengthen
it.  Every time measured in a slice is then stated for a host on which
the yardstick takes :data:`REFERENCE_S`: a duration is multiplied by the
slice's :meth:`Slices.factor`, a rate divided by it.  The program moves
less than the yardstick when the host changes speed (by the power
:data:`ELASTICITY`, measured), and the factor follows it.

The yardstick's own time is kept off the program's clock
(:meth:`Slices.clock`), so no measured interval contains it.  Its heap
is built by :func:`prepare` (or on first use), and
:func:`program_peak_mib` takes it out of the process's peak resident
memory.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time

#: The yardstick's time on the reference host: the median measured on a
#: 2-core x86-64 host (Python 3.11) in its usual state.  Figures scaled
#: to it read as that host's raw figures.
REFERENCE_S = 0.005
#: How the program's times move with the yardstick's as the host changes
#: speed: as its power 0.7.  Fitted on that host over 1-second slices of
#: both in-process workloads, and across whole runs; 0.7 gave the
#: steadiest figures of 0.5, 0.7 and 1 on both.
ELASTICITY = 0.7
#: Timings of each kind per boundary; the median is kept, so one
#: interrupted timing does not move it.
REPEATS = 3
#: Entries of the scattered-lookup heap (~40 MiB), and lookups per
#: timing: they touch more memory than a core's own cache holds.
HEAP_ENTRIES = 150_000
LOOKUPS = 15_000

#: Nominal slice length; a phase is cut into equal slices near this.
SLICE_SECONDS = 1.0

_heap: dict | None = None
_keys: tuple = ()
_heap_mib = 0.0
_peak_before_mib = 0.0


def _status_mib(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def program_peak_mib(peak_mib: float) -> float:
    """This process's peak RSS (``VmHWM``) without the yardstick's heap:
    the peak before the heap was built, or the peak since less the heap
    (which stays resident), whichever is larger."""
    if _heap is None:
        return peak_mib
    return max(_peak_before_mib, peak_mib - _heap_mib)


def _in_cache() -> int:
    table: dict[tuple, int] = {}
    for number in range(10_000):
        key = ("k", number & 1023)
        table[key] = table.get(key, 0) + number * number % 7
    return sorted(table.values())[0]


def _scattered() -> int:
    total = 0
    for key in _keys:
        total += _heap[key][0]
    return total


def prepare() -> None:
    """Build the yardstick's heap now: best before the program allocates
    anything, so that the memory it takes is all new to the process."""
    global _heap, _keys, _heap_mib, _peak_before_mib
    _peak_before_mib = _status_mib("VmHWM")
    before = _status_mib("VmRSS")
    _heap = {(number, str(number)): (number,) for number in range(HEAP_ENTRIES)}
    _keys = tuple(random.Random(HEAP_ENTRIES).sample(list(_heap), LOOKUPS))
    _heap_mib = _status_mib("VmRSS") - before
    # Tuples of atomic values, and the dict that holds only them, leave
    # the collector's care at its next pass: none of the program's
    # collections ever walks the heap.
    gc.collect()


def _median_time(work) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def yardstick_s(every_cpu: bool = False) -> float:
    """Seconds the yardstick takes now: the geometric mean of the median
    in-cache and scattered-lookup timings.

    With ``every_cpu``, the calling thread is pinned to each CPU it may
    run on in turn and the geometric mean over them is returned: the
    speeds of a shared host's CPUs move largely apart, and a program of
    several processes runs on all of them.
    """
    if _heap is None:
        prepare()
    if every_cpu:
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(yardstick_s())
        finally:
            os.sched_setaffinity(0, allowed)
        return math.prod(times) ** (1 / len(times))
    enabled = gc.isenabled()
    gc.disable()
    try:
        return math.sqrt(_median_time(_in_cache) * _median_time(_scattered))
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float, elasticity: float = ELASTICITY) -> float:
    """Reference time over the mean of two yardsticks around an interval,
    to the power ``elasticity``."""
    return (REFERENCE_S / ((before + after) / 2)) ** elasticity


class Slices:
    """A phase of ``seconds`` of program time, cut into equal slices.

    The caller does its work in small steps, notes :meth:`current` for
    each result, and calls :meth:`tick` between steps with nothing of its
    own in flight; at each slice boundary ``tick`` times the yardstick.
    Once the phase is :meth:`over`, :meth:`finish` closes it, and the
    factors, rates and scaled durations can be read.  :meth:`clock` is
    the program's clock: ``perf_counter`` minus every yardstick so far.
    """

    def __init__(
        self, seconds: float, slice_seconds: float = SLICE_SECONDS, every_cpu: bool = False
    ):
        self.count = max(1, round(seconds / slice_seconds))
        self.width = seconds / self.count
        self.every_cpu = every_cpu
        self.paused = 0.0
        self.yardsticks = [yardstick_s(every_cpu)]
        self.start = self.clock()
        self.deadline = self.start + seconds

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def over(self) -> bool:
        return self.clock() >= self.deadline

    def current(self) -> int:
        """The slice in progress (the last one once the phase is over)."""
        return min(self.count, len(self.yardsticks)) - 1

    def slice_end(self) -> float:
        """Program-clock end of the slice in progress."""
        return self.start + self.width * len(self.yardsticks)

    def tick(self) -> None:
        """Time the yardstick if the slice in progress has ended."""
        while len(self.yardsticks) <= self.count and self.clock() >= self.slice_end():
            began = time.perf_counter()
            self.yardsticks.append(yardstick_s(self.every_cpu))
            self.paused += time.perf_counter() - began

    def finish(self) -> None:
        """Close the phase: every slice gets its closing yardstick."""
        while len(self.yardsticks) <= self.count:
            self.yardsticks.append(yardstick_s(self.every_cpu))

    def factor(self, index: int) -> float:
        return factor(self.yardsticks[index], self.yardsticks[index + 1])

    def median_factor(self) -> float:
        return statistics.median(self.factor(i) for i in range(self.count))

    def rate(self, indices: list[int]) -> float:
        """Median over slices of completions per reference second, given
        the slice (:meth:`current`) each completion fell in."""
        counts = [0] * self.count
        for index in indices:
            counts[index] += 1
        return statistics.median(
            counts[i] / self.width / self.factor(i) for i in range(self.count)
        )

    def scaled(self, duration: float, index: int) -> float:
        """A duration measured in slice ``index``, in reference seconds."""
        return duration * self.factor(index) if math.isfinite(duration) else duration
