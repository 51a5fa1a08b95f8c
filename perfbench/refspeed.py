"""The speed of the host, sampled while a pass runs.

On a shared VM the CPU a pass gets runs slower or faster in phases of a few
seconds, by up to a third.  The benchmark reports every timing at the
reference speed: a pass times a fixed reference slice (`kernel`, about 2 ms
of dict, tuple and int work of the kind `MultiPoly` does) every
`INTERVAL` seconds from a SIGALRM handler, in the pass's own thread, and a
span of program time is scaled by `REFERENCE_S / slice seconds`, averaged
over the slices near it.  The time spent in slices is taken out of every
measured span first.  `kernel` is the benchmark's own code, so nothing a
change under `src/` does can make it faster or slower.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

# Seconds between two slices.
INTERVAL = 0.04
# Median seconds of one slice on the baseline host (see README.md).  It sets
# the scale only: every spread and every ratio between runs is the same
# whatever it is.
REFERENCE_S = 0.0023
# A span is scaled by the slices that start within this many seconds of it.
REACH_S = 0.05

_A = [((i, j, k), i - j + 3 * k + 1)
      for i in range(5) for j in range(4) for k in range(3)]
_B = [((i, j, k), 2 * i + j - k - 1)
      for i in range(4) for j in range(3) for k in range(3)]


def kernel() -> int:
    """Three products of two sparse polynomials in three variables, as
    dicts of exponent tuples, each with its coefficients as text."""
    size = 0
    for _ in range(3):
        out = {}
        for ea, ca in _A:
            for eb, cb in _B:
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        size += len(",".join(str(v) for v in out.values()))
    return size


class SpeedSampler:
    """Times `kernel` every INTERVAL seconds of wall time until `stop`."""

    def __init__(self):
        self.samples: list[list[float]] = []  # [start, slice seconds]
        self.stolen_s = 0.0                    # time spent in slices

    def _slice(self, signum=None, frame=None):
        # The slice's short-lived objects must not trigger a collection, or
        # slices would move the program's own collections about.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append([start, took])
        self.stolen_s += took

    def start(self):
        for _ in range(20):  # warm the interpreter's caches for the kernel
            self._slice()
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples) -> float:
    """Mean of REFERENCE_S / slice seconds.  Slices come at even steps of
    wall time, so this mean, times a span's seconds, is the span's work in
    seconds at the reference speed."""
    return statistics.fmean(REFERENCE_S / took for _, took in samples)


def span_speeds(samples, spans) -> list[float]:
    """The speed near each (start, end) span: over the slices that start
    within REACH_S of it, or the nearest slice if none does."""
    starts = [s for s, _ in samples]
    out = []
    for lo, hi in spans:
        i = bisect.bisect_left(starts, lo - REACH_S)
        j = bisect.bisect_right(starts, hi + REACH_S)
        if i == j:  # no slice that close: the nearest one
            k = min(max(i, 0), len(starts) - 1)
            if k > 0 and abs(starts[k - 1] - lo) < abs(starts[k] - lo):
                k -= 1
            i, j = k, k + 1
        out.append(speed(samples[i:j]))
    return out
