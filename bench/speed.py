"""How fast the host runs Python, read while a job runs.

On a shared host the speed of this process drifts by up to 2x within
seconds, because other tenants share the cores.  ``Sampler`` times a small
fixed loop that does not touch nwave: once before a job (or the set-up),
every ``INTERVAL_S`` while it runs (from a SIGALRM handler), and once
after it.  The measured seconds leave out the time spent in the samples,
and ``factor`` scales them to the speed at which one iteration of the loop
takes ``REF_ITER_S``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Loop iterations per sample: about 2.5 ms at the reference speed.
ITERATIONS = 300
INTERVAL_S = 0.1
#: Seconds per iteration on the 2-core development host when it runs fast
#: (the tenth percentile of 400 samples).
REF_ITER_S = 8.0e-6


def probe(iterations: int = ITERATIONS) -> float:
    """Seconds per iteration of a fixed Fraction and dict loop."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, iterations + 1):
        acc += Fraction(k, k + 1) * Fraction(k + 2, k + 3)
        table[(k % 97, k % 89)] = acc
    return (perf_counter() - start) / iterations


class Sampler:
    """Context manager that samples the speed around and during a job."""

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0     # seconds in the samples taken between enter and exit
        self.probe_s = 0.0   # seconds in all samples, the first and last included

    def _sample(self) -> float:
        start = perf_counter()
        self.samples.append(probe())
        seconds = perf_counter() - start
        self.probe_s += seconds
        return seconds

    def _tick(self, signum, frame) -> None:
        self.spent += self._sample()

    def __enter__(self) -> "Sampler":
        self.samples, self.spent, self.probe_s = [], 0.0, 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self) -> float:
        """Reference seconds per measured second over the sampled interval.

        The process ran at a rate proportional to 1/sample at each sample,
        so its work is the time average of REF_ITER_S/sample.
        """
        return REF_ITER_S * statistics.fmean(1 / p for p in self.samples)
