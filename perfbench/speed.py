"""Machine-speed gauge: op wall times converted to reference-speed seconds.

The benchmark machine is a small virtual machine shared with other tenants.
Its speed changes by up to 1.7x between a fast and a slow state that last
from seconds to minutes, so a plain wall-time median moves by a third
between runs of the same code.  The gauge times a fixed reference job
between ops: a pure-Python loop and a loop of numpy calls on small arrays,
the two kinds of work the program does.  An op's wall time is scaled by
REF_NOMINAL_S over the reference time measured around it, which gives its
wall time at the machine speed where the reference takes REF_NOMINAL_S.
The reference does not use the program, so a change to the program moves
the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The reference's time in this machine's fast state (2-vCPU Xeon VM).
REF_NOMINAL_S = 2.3e-3
PY_ITERS = 50_000
NP_ITERS = 150
NP_SIZE = 1024
MIN_RUNS = 3
# Share of the time since the last reading that the next one spends on the
# reference: the machine's speed also jitters from one millisecond to the
# next, so a reading must average over a time in proportion to the ops it
# stands for.
SHARE = 0.05
MIN_READ_S = 0.02
SETUP_READ_S = 0.05


def _python_loop() -> int:
    s = 0
    for i in range(PY_ITERS):
        s += i * i
    return s


def _numpy_loop() -> None:
    x = np.ones(NP_SIZE)
    y = np.arange(float(NP_SIZE))
    for _ in range(NP_ITERS):
        z = np.cumsum(x * 0.5 + y)
        np.maximum.accumulate(z, out=z)
        z.argmax()


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference_s(seconds: float = MIN_READ_S) -> float:
    """One reading: run the reference job for about `seconds` (at least
    MIN_RUNS times) and return the geometric mean of the median times of
    its two loops."""
    py, nps = [], []
    end = time.perf_counter() + seconds
    while len(py) < MIN_RUNS or time.perf_counter() < end:
        py.append(_timed(_python_loop))
        nps.append(_timed(_numpy_loop))
    return math.sqrt(statistics.median(py) * statistics.median(nps))


class Gauge:
    """Reads the reference between ops and scales each op's wall time by
    REF_NOMINAL_S over the geometric mean of the readings just before and
    just after it.

    A reading is taken after an op once `every_s` seconds have passed since
    the last one, so short ops share their readings, and it lasts SHARE of
    the time since the last reading (at least MIN_READ_S).
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        reference_s()                       # warm-up, not kept
        self.readings = [reference_s()]
        self._since = time.perf_counter()
        self._before = []                   # per op: index of the reading before it

    def add(self) -> None:
        """Note that one more op has run; read the reference when due."""
        self._before.append(len(self.readings) - 1)
        if time.perf_counter() - self._since >= self.every_s:
            self.flush()

    def flush(self) -> None:
        """Read the reference now if an op ran since the last reading."""
        if self._before and self._before[-1] == len(self.readings) - 1:
            elapsed = time.perf_counter() - self._since
            self.readings.append(reference_s(max(MIN_READ_S, SHARE * elapsed)))
            self._since = time.perf_counter()

    @property
    def scales(self) -> list[float]:
        """Per op so far, the factor from wall time to reference-speed time.
        Call flush() first so that every op has a reading after it."""
        return [REF_NOMINAL_S / math.sqrt(self.readings[i] * self.readings[i + 1])
                for i in self._before]
