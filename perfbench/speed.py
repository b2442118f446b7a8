"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of a core drifts: a fixed pure-Python loop
measured over a few minutes took anywhere from 1.0x to 2.0x its fastest time,
and whole minutes stay slow or fast, so runs of the same code made minutes
apart disagree far more than any change worth detecting.  The benchmark
therefore times a fixed reference job next to the measured work and reports
each time at a nominal machine speed::

    reported = measured * NOMINAL_REFERENCE_S / reference_time_now

The reference job is benchmark code only (dicts, sorting, sets and small
numpy calls, the same mix the indexes run), so no change to the program
moves it.  A change that makes the program itself slower keeps showing; only
slowdowns that hit the reference job as much as the program cancel out,
which includes CPU contention the program might create on its own threads.
The raw measurement and the speed factor are printed beside every value.

The job runs on the client thread, so it tracks work done there.  The async
phase of ``sharded_serve`` spreads its work over worker threads on both
cores, so its times are converted with the job timed on every core before
and after that phase.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

CLOCK = time.perf_counter
#: The reference job's duration that defines "nominal speed": a round number
#: near its fastest time on the two-core Xeon VM the benchmark was tuned on.
NOMINAL_REFERENCE_S = 0.002
#: While serving, a sync client re-times the reference job this often.
TICK_S = 0.2


class SpeedProbe:
    """Times the reference job and turns the timings into speed factors."""

    def __init__(self):
        rng = random.Random(0)
        self._points = [(rng.random(), rng.random()) for _ in range(3000)]
        self._array = np.array(self._points)
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)
        #: Total seconds spent timing the job; loops subtract it from their wall.
        self.busy = 0.0
        self._last = 0.0

    def _job(self) -> int:
        buckets: dict = {}
        for index, (x, y) in enumerate(self._points):
            buckets.setdefault(int(x * 16), []).append((y, index))
        total = 0
        for key in sorted(buckets):
            row = sorted(buckets[key])
            total += len({index for _, index in row if index % 3})
        for lo in range(0, len(self._points), 30):
            total += int(np.count_nonzero(self._array[lo:lo + 30, 0] > 0.5))
        return total

    def sample(self, count: int = 5) -> None:
        """Time the reference job ``count`` times."""
        begin = CLOCK()
        for _ in range(count):
            start = CLOCK()
            self._job()
            self.samples.append((start, CLOCK() - start))
        self._last = CLOCK()
        self.busy += self._last - begin

    def sample_cpus(self, count: int = 5) -> None:
        """Time the job ``count`` times on each CPU this process may use,
        pinning the calling thread to one CPU at a time (for work spread
        over several threads, whose cores may run at different speeds)."""
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self.sample(count)
        finally:
            os.sched_setaffinity(0, cpus)

    def tick(self) -> None:
        """One timing if :data:`TICK_S` passed since the last one (call it
        between requests, outside any timed region)."""
        if CLOCK() - self._last >= TICK_S:
            self.sample(1)

    def factor(self, start: float, end: Optional[float] = None) -> float:
        """How many times slower than nominal the machine ran between
        ``start`` and ``end`` (median of the timings taken in that window)."""
        end = CLOCK() if end is None else end
        window = [seconds for when, seconds in self.samples if start <= when <= end]
        return statistics.median(window) / NOMINAL_REFERENCE_S
