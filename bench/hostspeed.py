"""Timings corrected for the speed of a shared host.

On a host whose cores are shared with other tenants, the same fixed
work takes a quarter to a half longer for seconds at a time, in CPU
time as much as in wall time: the slowdown comes from the neighbours'
use of the core and its caches, not from being descheduled.  Runs of
the same code then differ by more than the changes a benchmark is meant
to show.

A :class:`HostClock` times each piece of work in CPU seconds of the
calling thread and times a fixed reference loop right before and after
it.  The work's seconds are scaled by ``REFERENCE_S`` over the mean of
the two reference times, so a corrected time is the time the work
would take at the speed at which the reference loop takes
``REFERENCE_S``.  The reference is shaped like a decode (a sort and a
Python loop over a small array) and calls nothing of the package, so
no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

CLOCK = time.thread_time

# CPU seconds of one reference pass at the nominal speed; on a 2.1 GHz
# Xeon vCPU a pass takes 1.0 ms when the host is quiet and up to 1.5 ms
# when it is busy.
REFERENCE_S = 1e-3

_REFERENCE_KEYS = np.random.default_rng(0).random((64, 50))


def reference_seconds() -> float:
    """CPU seconds of one pass of the fixed reference loop."""
    start = CLOCK()
    total = 0.0
    for keys in _REFERENCE_KEYS:
        acc = 0.0
        for i in np.argsort(keys).tolist():
            acc += keys[i] if acc < 10.0 else -1.0
        total += acc + float(np.cumsum(keys)[-1])
    return CLOCK() - start


class HostClock:
    """Times work in corrected CPU seconds (see the module docstring).

    The reference pass after one piece of work is reused as the pass
    before the next, so back-to-back timings cost one pass each."""

    def __init__(self) -> None:
        self._last = reference_seconds()
        self.factors: list[float] = []

    def time(self, work: Callable[[], T]) -> tuple[T, float]:
        """Return ``work()`` and its corrected seconds."""
        before = self._last
        start = CLOCK()
        result = work()
        elapsed = CLOCK() - start
        self._last = reference_seconds()
        factor = 2.0 * REFERENCE_S / (before + self._last)
        self.factors.append(factor)
        return result, elapsed * factor

    def median_factor(self) -> float:
        return statistics.median(self.factors)
