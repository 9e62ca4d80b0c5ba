"""Host speed probe: a fixed pure-Python loop timed while the program runs.

On a shared host one process's CPU speed swings by about 1.45x, in phases that
last from seconds to minutes and that show in CPU time as much as in wall
time. A whole run can fall inside one slow phase, so no statistic over the
passes of a run removes it. The probe times a fixed reference loop (``PERIOD_S``
apart, from a timer signal, and once at each end of the interval) and scales
the interval's wall time by the host speed it saw:

    calibrated = wall * mean(NOMINAL_S / sample)

which is the time the interval would have taken at the speed where the
reference loop takes ``NOMINAL_S``. A change that makes the program slower
makes ``calibrated`` longer by the same share; a slow phase of the host
stretches ``wall`` and the samples alike and leaves ``calibrated`` as it was.
The probe costs about 1.5% of the interval.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

PERIOD_S = 0.1
# About the reference loop's time in a fast phase of a shared 2-core
# x86-64 VM with Python 3.11, so calibrated times read as seconds there.
NOMINAL_S = 0.001


def reference() -> int:
    """Fixed work of the program's kind: int bit operations, a dict, calls."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1, 3000):
        x = (i * 0x9E3779B1) & 0xFFFFFFFF
        acc ^= x >> (i & 7)
        key = x & 63
        table[key] = table.get(key, 0) + (x & -x).bit_length()
    return acc + sum(table.values())


class SpeedProbe:
    """``with SpeedProbe() as p: ...`` then ``p.wall``, ``p.calibrated``."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = self.factor = self.calibrated = 0.0

    def _sample(self, *_signal) -> None:
        t0 = perf_counter()
        try:
            reference()
        except RecursionError:  # the program is at the recursion limit: no sample
            return
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.factor = mean(NOMINAL_S / s for s in self.samples)
        self.calibrated = self.wall * self.factor
