"""Cycle-accounting and wall-clock profiling for the simulators.

Two complementary views of where a simulated cell spends its time:

* **simulated time** — the detailed core counts, per pipeline stage, the
  cycles in which that stage did any work (``CoreStats.stage_*_cycles``).
  :class:`StageProfile` turns those counters into utilization fractions:
  a machine whose issue stage is active in 40% of cycles while fetch is
  active in 90% is frontend-bound in the simulated microarchitecture.
* **host time** — :func:`profile_callable` wraps a cell in
  :mod:`cProfile` and renders the hot functions, answering where the
  *simulator* (not the simulated machine) burns host CPU.  This is the
  view that drove the hot-loop optimization work; end-to-end and
  per-layer timings come from the ledger (``ledger/``).

Neither view feeds a paper statistic; both are diagnostics.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass

from .core.stats import CoreStats

#: stage names in pipeline order, as reported by StageProfile
STAGE_NAMES = ("fetch", "dispatch", "issue", "complete", "recover", "retire")


@dataclass(frozen=True)
class StageProfile:
    """Per-stage active-cycle counts for one detailed-core run."""

    cycles: int
    fetch: int
    dispatch: int
    issue: int
    complete: int
    recover: int
    retire: int

    @classmethod
    def from_stats(cls, stats: CoreStats) -> "StageProfile":
        return cls(**stats.stage_cycle_counters())

    def counters(self) -> dict[str, int]:
        return {"cycles": self.cycles, **{s: getattr(self, s) for s in STAGE_NAMES}}

    def utilization(self) -> dict[str, float]:
        """Fraction of total cycles each stage was active (0.0 on an
        empty run).  Stages overlap, so fractions don't sum to 1."""
        denom = self.cycles or 1
        return {s: getattr(self, s) / denom for s in STAGE_NAMES}

    def format(self) -> str:
        """Aligned text table: counts and utilization per stage."""
        util = self.utilization()
        lines = [f"{'stage':<10} {'active':>10} {'util':>7}"]
        for stage in STAGE_NAMES:
            lines.append(
                f"{stage:<10} {getattr(self, stage):>10} {util[stage]:>6.1%}"
            )
        lines.append(f"{'cycles':<10} {self.cycles:>10}")
        return "\n".join(lines)


def stage_profile(stats: CoreStats) -> StageProfile:
    """The cycle-accounting view of one finished detailed-core run."""
    return StageProfile.from_stats(stats)


class WallClock:
    """Tiny context-manager stopwatch: ``with WallClock() as t: ...``
    then read ``t.seconds``."""

    __slots__ = ("seconds", "_start")

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def profile_callable(fn, *args, top: int = 25, sort: str = "cumulative", **kwargs):
    """Run ``fn(*args, **kwargs)`` under :mod:`cProfile`.

    Returns ``(result, report)`` where ``report`` is the top-``top``
    functions by ``sort`` order as text.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(top)
    return result, buffer.getvalue()


__all__ = [
    "STAGE_NAMES",
    "StageProfile",
    "WallClock",
    "profile_callable",
    "stage_profile",
]
