"""The host's current speed, read from a fixed pure-Python reference loop.

On a shared host the speed of a core drifts, by up to 2x, in episodes of
well under a second to minutes, and every timing of the program drifts
with it (CPU time included: the process stays on the CPU, it just runs
slower).  The benchmark therefore samples the host's speed *during* each
measurement: a ``SpeedSampler`` interrupts the measured code every
``SAMPLE_PERIOD_S`` (``SIGALRM``) and times one short pass of the
reference loop.  It reports *calibrated* seconds::

    calibrated = measured * REFERENCE_S / mean pass time during the measurement

that is, the time the measurement would have taken on a host that runs
the loop in ``REFERENCE_S``.  The loop is benchmark code, so a change to
the program moves the calibrated time exactly as it moves the measured
one; only the host's drift cancels.  Passes timed in the measured
process's own thread are taken out of its wall and CPU times by the
caller (``SpeedSampler.spent_s``).  Raw times are kept in the run record
next to the calibrated ones.

Set-up (interpreter start, imports and workload construction in a fresh
process) is not calibrated.  On a 2-vCPU Xeon VM no reference tracked
it: passes timed during set-up, passes timed next to it, and the speed
sampled over the run's units a few seconds later all left the spread of
``setup_s`` as wide as or wider than the raw times.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any

#: Iterations of one reference pass (about 1 ms on a 2-vCPU Xeon VM with
#: Python 3.11).
REFERENCE_ITERATIONS = 15_000
#: Pass time that calibrated seconds are expressed against: the pass's
#: time on that host in its fast stretches, so that calibrated figures
#: read close to the raw ones measured there at quiet times.
REFERENCE_S = 0.001
#: Wall time between two passes while a sampler is active (about 2% of
#: the measured time goes to the passes).
SAMPLE_PERIOD_S = 0.05


def reference_s() -> float:
    """CPU time of this thread for one pass of the reference loop.

    CPU time rather than wall time: where the measuring process shares
    the cores with workers of its own (``suite``'s pool), a pass that the
    scheduler preempts would read that contention, not the host's speed.
    The host's own slowdowns show in CPU time as well.
    """
    started = time.thread_time()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


class SpeedSampler:
    """Times a reference pass every ``SAMPLE_PERIOD_S`` inside a ``with``.

    The passes run in a ``SIGALRM`` handler, so in the main thread of this
    process, between the bytecodes of whatever it is running.  Interval
    timers are not inherited across ``fork``, so worker processes are not
    interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self.samples.append(reference_s())
        self.spent_s += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # Shorter than one period: read the speed right after it.
            self._sample(signal.SIGALRM, None)

    @property
    def mean_s(self) -> float:
        """Mean time of the passes taken while the sampler was active."""
        return statistics.fmean(self.samples)


def calibrate(seconds: float, pass_s: float) -> float:
    """``seconds`` measured while a reference pass took ``pass_s``."""
    return seconds * REFERENCE_S / pass_s
