"""Shared configuration for the table/figure benchmark suite.

Each benchmark regenerates one table or figure from the paper at a
reduced workload scale (override with REPRO_BENCH_SCALE / the window
list with REPRO_BENCH_WINDOWS) and prints the rows the paper reports.
EXPERIMENTS.md records a full-scale run next to the paper's numbers.

Environment knobs (validated at collection time, with errors naming the
variable and the accepted format):

* ``REPRO_BENCH_SCALE`` — positive float, detailed-core workload scale
  (default 0.12).
* ``REPRO_BENCH_IDEAL_SCALE`` — positive float, idealized-study scale
  (default 0.4).
* ``REPRO_BENCH_WINDOWS`` — comma-separated positive ints, window-sweep
  sizes (default ``128,256``).
* ``REPRO_BENCH_TIMEOUT`` — positive float seconds; per-benchmark
  wall-clock budget enforced by the robustness runner (default 1800;
  ``0`` disables).
* ``REPRO_CACHE_DIR`` — optional directory for the shared artifact
  cache's disk layer: golden traces and reconvergence tables derived by
  one benchmark (or an earlier run) are reloaded instead of re-traced.
  Entries are content-addressed, so editing a kernel invalidates them
  automatically.

Within one session the in-memory layer alone already de-duplicates: all
figure benchmarks at the same scale share a single golden trace per
workload via ``repro.harness.load_bundle``.
"""

import math
import os

import pytest

from repro.errors import CacheError
from repro.harness.cache import get_default_cache
from repro.harness.runner import call_with_timeout


def _env_float(name: str, default: str, description: str) -> float:
    raw = os.environ.get(name, default)
    try:
        value = float(raw)
    except ValueError:
        raise pytest.UsageError(
            f"{name}={raw!r} is not a valid number; expected a positive "
            f"float such as {name}={default} ({description})"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise pytest.UsageError(
            f"{name}={raw!r} must be a finite non-negative number "
            f"({description})"
        )
    return value


def _env_scale(name: str, default: str, description: str) -> float:
    value = _env_float(name, default, description)
    if value == 0:
        raise pytest.UsageError(
            f"{name}=0 is not a usable scale; expected a positive float "
            f"such as {name}={default} ({description})"
        )
    return value


def _env_windows(name: str, default: str) -> tuple:
    raw = os.environ.get(name, default)
    windows = []
    for token in raw.split(","):
        token = token.strip()
        try:
            window = int(token)
        except ValueError:
            raise pytest.UsageError(
                f"{name}={raw!r} is malformed: {token!r} is not an integer; "
                f"expected comma-separated positive window sizes such as "
                f"{name}={default}"
            ) from None
        if window < 1:
            raise pytest.UsageError(
                f"{name}={raw!r} is malformed: window sizes must be >= 1; "
                f"expected e.g. {name}={default}"
            )
        windows.append(window)
    if not windows:
        raise pytest.UsageError(
            f"{name}={raw!r} names no window sizes; expected e.g. "
            f"{name}={default}"
        )
    return tuple(windows)


#: scale for detailed-core experiments (the slow ones)
CORE_SCALE = _env_scale(
    "REPRO_BENCH_SCALE", "0.12", "detailed-core workload scale"
)
#: scale for idealized-study and trace-driven experiments
IDEAL_SCALE = _env_scale(
    "REPRO_BENCH_IDEAL_SCALE", "0.4", "idealized-study workload scale"
)
#: window sizes for the window sweeps
WINDOWS = _env_windows("REPRO_BENCH_WINDOWS", "128,256")
#: wall-clock budget per benchmark, seconds (0 disables)
BENCH_TIMEOUT = _env_float(
    "REPRO_BENCH_TIMEOUT", "1800", "per-benchmark wall-clock budget in seconds"
)

# Build the artifact cache now so a REPRO_CACHE_DIR problem surfaces
# as a collection error naming the variable, not as a mid-suite crash
# inside the first benchmark.
try:
    ARTIFACT_CACHE = get_default_cache()
except CacheError as exc:
    raise pytest.UsageError(str(exc)) from None


@pytest.fixture(scope="session")
def core_scale():
    return CORE_SCALE


@pytest.fixture(scope="session")
def ideal_scale():
    return IDEAL_SCALE


@pytest.fixture(scope="session")
def windows():
    return WINDOWS


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The call goes through the cell runner's timeout guard: a hung
    regeneration dies with a diagnosable ``CellTimeout`` instead of
    stalling the suite, while genuine errors propagate unchanged.
    """
    return benchmark.pedantic(
        call_with_timeout,
        args=(lambda: fn(*args, **kwargs), BENCH_TIMEOUT or None),
        rounds=1,
        iterations=1,
    )
