"""In-run noise control: the host's speed, sampled while the run works.

This host's speed drifts by up to half over minutes.  The drift is not
steal time, so the guest cannot see it in its own CPU accounting.  A
fixed pure-Python snippet slows down with it: across 88 three-second
study units, the unit time and the snippet's median time during that
unit correlated at 0.94.

:class:`HostSpeed` runs the snippet from a ``SIGPROF`` handler after
every ``INTERVAL_S`` of the process's CPU time.  The snippet takes about
1 ms, so sampling costs about 2%, and the time spent in it is kept apart
so callers can subtract it.  :meth:`HostSpeed.scale` converts a measured
duration to what it would have been with the snippet at ``NOMINAL_S``:
times from the same code then compare across slow and fast periods.
The snippet lives in the ledger, never in ``src/``, so a change to the
simulator cannot move the reference.

This module imports only the standard library: ``unit.py`` starts
sampling before it imports ``repro``.
"""

from __future__ import annotations

import signal
import time

#: process CPU time between samples
INTERVAL_S = 0.05
#: the snippet's time on the reference host (this host, unloaded)
NOMINAL_S = 1.0e-3


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int):
        self.a = a
        self.b = 3 * a


_ITEMS = [_Item(i) for i in range(64)]
_SLOTS = [0] * 256


def snippet() -> float:
    """Seconds to run a fixed attribute/list/arithmetic loop.

    Small ints only, so the loop allocates nothing and never triggers a
    garbage collection of the run's own objects.
    """
    items, slots, acc = _ITEMS, _SLOTS, 0
    start = time.perf_counter()
    for r in range(150):
        for item in items:
            acc = (acc + item.a * item.b) & 0xFF
            slots[(item.a ^ r) & 0xFF] = acc
    return time.perf_counter() - start


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class HostSpeed:
    """Samples :func:`snippet` on the process's CPU-time clock."""

    def __init__(self):
        self.samples: list[float] = []
        #: seconds this process spent inside the sampler
        self.spent = 0.0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(snippet())
        self.spent += time.perf_counter() - start

    def factor(self) -> float:
        """Nominal over measured snippet time (1.0 without samples)."""
        return NOMINAL_S / _median(self.samples) if self.samples else 1.0

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()
