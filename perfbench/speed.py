"""Machine-speed correction for timings taken on a shared, drifting host.

On a host whose CPU is shared with other tenants, the speed of one core
drifts by up to ~1.8x within seconds, so raw seconds of the same work vary
far more between runs than any change worth detecting.  ``SpeedProbe``
samples a fixed pure-Python calibration slice (Fraction and int
arithmetic, like padicdyn's own inner loops) ten times a second from a
timer signal while a measurement runs.  ``ref_seconds(a, b)`` then
converts the interval [a, b] to *reference seconds*: each stretch of time
is divided by how long the slice took around it, times ``REF_SLICE_S``.
A reference second is the time the work takes on a machine where the
slice takes exactly 1 ms.  On a 2-vCPU shared host the run-to-run
variation of a fixed 3.5 s piece of padicdyn work fell from 6-14% (raw)
to about 2.7% (reference).  Time spent inside the probe is excluded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_SLICE_S = 0.001
INTERVAL_S = 0.1
_SMOOTH = 2          # samples on each side in the moving median


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python arithmetic."""
    started = time.perf_counter()
    acc = Fraction(0)
    n = 0
    for i in range(1, 400):
        acc += Fraction(i % 13 + 1, i % 7 + 2)
        n = (n * 31 + i) % 1000003
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the calibration slice on a timer while active."""

    def __init__(self):
        self.starts = []     # when each sample began
        self.ends = []       # when it ended
        self.slices = []     # its duration
        self._previous = None

    def _tick(self, signum, frame):
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        duration = calibration_slice()
        self.starts.append(start)
        self.slices.append(duration)
        self.ends.append(start + duration)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def smoothed(self) -> list:
        s = self.slices
        return [statistics.median(s[max(0, i - _SMOOTH): i + _SMOOTH + 1])
                for i in range(len(s))]

    def probe_seconds(self, a: float, b: float) -> float:
        """Raw time the probe itself spent inside [a, b]."""
        return sum(max(0.0, min(b, e) - max(a, s))
                   for s, e in zip(self.starts, self.ends))

    def ref_seconds(self, a: float, b: float, smoothed=None) -> float:
        """Reference seconds of the work done in [a, b], probe excluded.

        Stretch k runs from the end of sample k to the start of sample
        k + 1 and is scaled by the mean of their smoothed slice times.
        """
        c = self.smoothed() if smoothed is None else smoothed
        total = 0.0
        k = max(0, bisect.bisect_right(self.ends, a) - 1)
        while k < len(c):
            lo = self.ends[k] if k else min(a, self.ends[0])
            hi = (self.starts[k + 1] if k + 1 < len(c)
                  else max(b, self.ends[-1]))
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                speed = (c[k] + c[min(k + 1, len(c) - 1)]) / 2
                total += overlap * REF_SLICE_S / speed
            if hi >= b:
                break
            k += 1
        return total
