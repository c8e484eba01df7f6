"""Machine-speed calibration: host time rescaled to a fixed speed.

The machine this benchmark was built on (2 shared vCPUs) changes speed
by a quarter and more, over seconds to minutes, on each CPU: the same
warm regeneration took a median of 111 ms in one run and 171 ms in
another, a few minutes apart.  No amount of work in one run averages
that out, so every timing the benchmark reports is taken next to a
fixed calibration loop, run on the same CPU just before, just after
and (for long intervals) during it, and rescaled::

    reported = host time x REFERENCE_MS / (median of those loops, in ms)

A reported time reads as host time on a machine where the loop takes
:data:`REFERENCE_MS`.  The loop lives in the benchmark's own files and
calls nothing in the program, and it runs with the garbage collector off,
so the size of the program's heap does not enter it.  It is meant to run
only when no program code runs on its CPU: the figures workloads run it
in their own process between cells and regenerations, and ``served-mix``
between request segments, checking from the program processes' CPU time
that they were idle (``served.py``).  It is not fully independent of the
program: what the program left in the CPU's caches shows in it, and any
CPU a program process used on the loop's CPU while it ran would read as
a slow machine and shrink the reported time.  The raw host times are
printed beside the rescaled ones.

The loop is interpreted Python (integer arithmetic, dict stores) plus a
JSON decode, the same mix of bytecode and C the program runs, so a slow
spell of the machine slows both alike.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

#: A fixed scale: about the loop's time, in ms, on the machine the
#: benchmark was built on.  Changing it changes every reported time.
REFERENCE_MS = 8.0

_PAYLOAD = json.dumps([[i * 0.37, i, str(i)] for i in range(2000)])


def loop_ms() -> float:
    """Host milliseconds of one pass of the fixed calibration loop, with
    the garbage collector off (a collection would walk the program's heap)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(40_000):
            total += i * i % 7
            table[i & 1023] = total
        json.loads(_PAYLOAD)
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Calibration loops, each with its CPU and the time it ended; rescales
    a timed interval by the loops that bracket it on its CPU."""

    def __init__(self) -> None:
        self._loops: Dict[int, List[Tuple[float, float]]] = {}

    def loop(self, cpu: int, repeat: int = 1) -> float:
        """Run the loop ``repeat`` times on ``cpu``; returns and records
        the median host ms."""
        with on_cpu(cpu):
            ms = statistics.median(loop_ms() for _ in range(repeat))
        self._loops.setdefault(cpu, []).append((time.perf_counter(), ms))
        return ms

    def rescale(self, host_s: float, start: float, end: float, cpu: int) -> float:
        """``host_s``, timed from ``start`` to ``end`` on ``cpu``, at the
        reference speed: the median of the last loop before the interval,
        the loops inside it and the first loop after it."""
        loops = self._loops[cpu]
        before = [ms for at, ms in loops if at <= start][-1:]
        inside = [ms for at, ms in loops if start < at <= end]
        after = [ms for at, ms in loops if at > end][:1]
        return host_s * REFERENCE_MS / statistics.median(before + inside + after)


# ----------------------------------------------------------------------
# CPU placement: the calibration must run where the timed work runs
# ----------------------------------------------------------------------
#: The CPUs this process was started with.
_STARTED_ON = frozenset(os.sched_getaffinity(0))


def cpus() -> List[int]:
    """The CPUs this process may run on."""
    return sorted(_STARTED_ON)


def pin(cpu: int, pid: int = 0) -> None:
    """Keep ``pid`` (0: this process) on one CPU."""
    os.sched_setaffinity(pid, {cpu})


def unpin(pid: int = 0) -> None:
    """Let ``pid`` (0: this process) run on every CPU we started with."""
    os.sched_setaffinity(pid, _STARTED_ON)


@contextmanager
def on_cpu(cpu: int):
    """Run the ``with`` body on ``cpu``, then return to where we were."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
