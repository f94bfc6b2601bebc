"""The ``oracle`` ideal model against an independent naive reference.

``tests/ideal_reference.py`` replays each trace with a whole-window
scan per cycle, written from the paper's Section 2 machine description;
:class:`~repro.ideal.IdealScheduler` must agree with it exactly on
every cell.  A disagreement is a bug in one of the two, never noise.

The cells are the five kernels at scale 0.02 and one variant of each
workload family at 0.3, at windows 16, 64 and 256, plus window 512:
only there (on go and jpeg) does the (ready cycle, fetch order) issue
rule change a cycle count.  A reference that issues by fetch order
alone matches every other cell.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from ideal_reference import simulate_oracle
from repro.ideal import IdealConfig, IdealModel, annotate, simulate
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.families import FAMILY_NAMES, family_workload_name

WINDOWS = (16, 64, 256, 512)
WORKLOADS = (
    *((name, 0.02) for name in WORKLOAD_NAMES),
    *((family_workload_name(family, 1), 0.3) for family in FAMILY_NAMES),
)
CELLS = [(name, scale, w) for name, scale in WORKLOADS for w in WINDOWS]


@lru_cache(maxsize=None)
def _trace(name: str, scale: float):
    return annotate(build_workload(name, scale).program)


@pytest.mark.parametrize(
    "name,scale,window", CELLS, ids=[f"{n}@{s}/w{w}" for n, s, w in CELLS]
)
def test_oracle_matches_reference(name, scale, window):
    trace = _trace(name, scale)
    result = simulate(trace, IdealModel.ORACLE, IdealConfig(window_size=window))
    expected = simulate_oracle(trace, window)
    assert (result.cycles, result.retired) == (expected.cycles, expected.retired)
    assert result.retired == len(trace)
    assert (
        result.fetched_wrong_path, result.full_squashes,
        result.selective_squashes, result.detections,
    ) == (0, 0, 0, 0)
