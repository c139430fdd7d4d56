"""Machine-speed probe: rescales pass times to one reference speed.

The benchmark's reference machine is a shared VM whose speed moves with its
neighbours' load: most of the time it runs at one speed, and in bursts of one
to tens of seconds it runs up to 1.9 times faster. The share of fast time in
a run shifts the raw pass times by more than the benchmark's bounds (see
``README.md``, "Noise").

While a pass runs, an interval timer interrupts it every
:data:`INTERVAL_S` seconds and times two fixed kernels that call nothing in
``icand``:

- :func:`small_kernel`, Python arithmetic and numpy calls on a 6 x 8 array,
  timed at every interrupt. Interpreter-bound code like ``concavity`` and
  ``optimize`` speeds up in the fast bursts about as much as it does.
- :meth:`SpeedProbe.large_kernel`, ``log`` and a product over 2 MiB arrays
  streamed through the cache, timed at every :data:`LARGE_EVERY`-th
  interrupt. Large-tensor code like the uniform ``k = 96`` integrand speeds
  up much less, about as much as it does.

Each kernel runs once untimed first: right after a pass's large arrays went
through the caches the first call is 5-20% slower, by an amount that depends
on the workload, and the second is not. For each kernel the mean of
``reference time / sample`` is the pass's average speed relative to the
reference speed; the samples are spaced evenly in time, so each stretch of the
pass weighs by its length. A pass's speed factor is the mean of the two
kernels' factors, and the pass time times that factor is the time the pass
would have taken at the reference speed. Averaging the two factors tracked
every workload's passes better than either kernel alone did. At a steady
machine speed the factor is constant, so a change to the package moves the
rescaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Seconds between two interrupts while a pass runs.
INTERVAL_S = 0.02
#: The large kernel is timed at every this many interrupts (it costs 1.2 ms).
LARGE_EVERY = 5
#: The kernels' times at the reference speed: about their times in the
#: reference machine's usual (slower) state, so rescaled times read close to
#: raw ones.
SMALL_REFERENCE_S = 120e-6
LARGE_REFERENCE_S = 600e-6

_SMALL = np.linspace(0.1, 1.0, 48).reshape(6, 8)
_LARGE_N = 2**18  # float64 elements: 2 MiB per array


def small_kernel() -> float:
    s = 0.0
    for i in range(200):
        s += math.log(i + 1.5)
    for _ in range(20):
        s += float((np.log(_SMALL) * _SMALL).sum())
    return s


def _timed(kernel) -> float:
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(samples: list[float], reference_s: float) -> float:
    """The average speed over the samples relative to the reference speed."""
    return statistics.fmean(reference_s / s for s in samples)


class SpeedProbe:
    """Times the kernels inside :meth:`running`; single-threaded, by
    ``SIGALRM`` on the main thread."""

    def __init__(self):
        self._x = np.linspace(0.5, 1.5, _LARGE_N)
        self._y = np.empty_like(self._x)
        self.small: list[float] = []
        self.large: list[float] = []

    def large_kernel(self) -> None:
        np.log(self._x, out=self._y)
        np.multiply(self._y, self._x, out=self._y)

    def _sample(self, signum=None, frame=None) -> None:
        if len(self.small) % LARGE_EVERY == 0:
            self.large.append(_timed(self.large_kernel))
        self.small.append(_timed(small_kernel))

    @contextmanager
    def running(self):
        self.small, self.large = [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self.small:  # a pass shorter than one interval
            self._sample()

    def factor(self) -> float:
        return (speed_factor(self.small, SMALL_REFERENCE_S)
                + speed_factor(self.large, LARGE_REFERENCE_S)) / 2
