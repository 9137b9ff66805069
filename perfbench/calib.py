"""Machine-speed normalization of the benchmark's timings.

On a machine whose cores are shared with other tenants (the 2-core
machine of the reference figures in README.md), speed changes by up to
1.6x from one second to the next, which swamps the run-to-run
comparison of multi-second commands. So every timing is reported in
seconds of a reference machine: one on which the calibration kernel
below runs at REFERENCE_S_PER_ITERATION.

While a command runs, a timer signal every PERIOD_S interrupts it and
times a short run of the kernel in the same thread. The command's wall
time, minus the time spent in those samples, is scaled by the mean of
reference-over-measured kernel speed (the time average of the machine's
speed over the command). The kernel mixes interpreter work with small
numpy calls, the mix of afcmem's hot loops; measured on bounds calls it
cut the call-to-call spread from 12% to 5%, where process CPU time gave
7% (README.md). The kernel never changes and imports nothing from
afcmem. It runs in the command's own thread, though, so what the command
does to the machine (cache pollution, helper threads, C calls that hold
the GIL and delay samples) can move the factor as well; run.py reports
the factor and the raw wall times next to the scaled ones for that
reason.

Sections too short to sample (interpreter start-up) are bracketed by a
longer kernel run before and after instead.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S_PER_ITERATION = 4e-6
PERIOD_S = 0.03
_TICK_ITERATIONS = 500      # about 2 ms per sample, under 10% of the period
_BRACKET_ITERATIONS = 10_000
_X = np.linspace(0.0, 1.0, 64)


def kernel_s(iterations):
    """Wall time of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        acc += float(np.sum(_X * (i % 7)))
    return time.perf_counter() - t0


def _speed(seconds, iterations):
    return REFERENCE_S_PER_ITERATION * iterations / seconds


class Sampler:
    """Samples the machine's speed on SIGALRM while the with-block runs.

    spent is the time taken by the samples so far, to be subtracted from
    what the block measures. on_sample, if given, is called with each
    sample's duration (the tracer keeps it out of the self time of the
    span it interrupts).
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.speeds = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(_speed(kernel_s(_TICK_ITERATIONS), _TICK_ITERATIONS))
        dt = time.perf_counter() - t0
        self.spent += dt
        if self.on_sample is not None:
            self.on_sample(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Factor from this machine's seconds to reference seconds."""
        if not self.speeds:  # block shorter than one period
            self.speeds.append(_speed(kernel_s(_TICK_ITERATIONS), _TICK_ITERATIONS))
        return float(np.mean(self.speeds))


class Bracket:
    """Calibrates before a short section and after it."""

    def __init__(self):
        self.before = kernel_s(_BRACKET_ITERATIONS)

    def scale(self):
        after = kernel_s(_BRACKET_ITERATIONS)
        return 0.5 * (_speed(self.before, _BRACKET_ITERATIONS) + _speed(after, _BRACKET_ITERATIONS))
