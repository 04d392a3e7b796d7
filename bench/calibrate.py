"""Host-speed calibration by a fixed loop sampled through the run.

On a shared host the same pure-Python work takes from 1x to about 1.8x its
least CPU time, and the slow and fast phases last from under a second to
minutes; whole runs can fall in a slow phase, so neither the least nor the
median of repeats inside one run holds still between runs.  The benchmark
therefore runs ``calibration_loop`` (fixed work, independent of the package)
every ``PERIOD_S`` of process CPU time, from a ``SIGPROF`` interval timer in
the main thread, and scales every CPU time it reports by

    REF_LOOP_S / (mean time of the calibration loops run within the interval)

so a figure reads as CPU seconds on a host that runs the loop in
``REF_LOOP_S``.  The CPU time spent in the sampler is subtracted before
scaling.  Scaled times of identical work agreed within a few per cent across
processes whose raw CPU times differed by 1.7x (see README.md).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from math import gcd

clock = time.process_time

#: CPU time between two calibration samples.
PERIOD_S = 0.02
#: Samples taken within this much CPU time of an interval also count for it,
#: so that short operations get at least a few samples.
MARGIN_S = 0.05
#: Typical time of one calibration loop on the reference host (2-vCPU Xeon
#: at 2.1 GHz, CPython 3.11.7).
REF_LOOP_S = 0.0004


_A = (3, -1, 4, 1, -5, 9, 2, -6)
_B = (2, 7, -1, 8, 2, -8, 1, 8)


def calibration_loop() -> int:
    """Fixed interpreter work of the kinds the package does.

    Small-integer products folded negacyclically into eight coefficients
    with a gcd (as in a cyclotomic product), then tuple building, hashing
    and dict inserts (as in exact-key caches).
    """
    acc = 0
    for r in range(1, 21):
        out = [0] * 8
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                if i + j < 8:
                    out[i + j] += x * y * r
                else:
                    out[i + j - 8] -= x * y * r
        g = 0
        for v in out:
            g = gcd(g, v)
        acc += g
    table = {}
    for i in range(500):
        key = (i, i * 3, i % 7)
        table[key] = i
        acc += hash(key) % 97 + len(table)
    return acc


class Calibrator:
    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        # The process CPU clock does not advance while this handler runs on
        # some kernels, so the loop is timed with the wall clock: it is short
        # and the process is alone on its CPU.
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        self.stamps.append(clock())
        self.loop_s.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_LOOP_S over the mean loop time of samples near [start, end].

        The mean follows the share of slow and fast phases within the
        interval, as the timed work does; samples over three times the
        median (the process was descheduled) are left out.
        """
        lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
        if lo == hi:
            raise RuntimeError("no calibration samples near the interval")
        near = self.loop_s[lo:hi]
        cap = 3 * statistics.median(near)
        kept = [x for x in near if x <= cap]
        return REF_LOOP_S * len(kept) / sum(kept)
