"""Ideal-scheduler golden: every :class:`~repro.ideal.IdealResult` field,
compared exactly against ``tests/goldens/ideal_golden.json``.

The cells cover the paths the Figure 3 sweep exercises:

* the five kernels x six models x windows 64/128/256/512 at scale 0.05,
  where restart-segment eviction (the oldest source squashing the
  youngest correct instruction to make room) fires for every
  control-independence model at every window;
* one variant of each ``fam:<family>:<seed>`` workload family at
  windows 64 and 256;
* off-default configs on ``go``: ``width=4``, ``frontend_stages=0`` and
  ``wrong_path_cap=16``.

The golden was minted from the dict-and-method scheduler that preceded
the inlined cycle loop; regenerate it only for a change that is meant
to move ideal results::

    PYTHONPATH=src python tests/test_ideal_golden.py --mint
"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.ideal import IdealConfig, IdealModel, annotate, simulate
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.families import FAMILY_NAMES, family_workload_name

GOLDEN_PATH = Path(__file__).parent / "goldens" / "ideal_golden.json"

KERNEL_SCALE = 0.05
KERNEL_WINDOWS = (64, 128, 256, 512)
FAMILY_VARIANT = 1
FAMILY_SCALE = 1.0
FAMILY_WINDOWS = (64, 256)
#: (label, workload, IdealConfig overrides) of the off-default cells
OFF_DEFAULT = (
    ("width=4", "go", {"window_size": 128, "width": 4}),
    ("frontend_stages=0", "go", {"window_size": 128, "frontend_stages": 0}),
    ("wrong_path_cap=16", "go", {"window_size": 128, "wrong_path_cap": 16}),
)


def golden_cells() -> list[tuple[str, str, float, IdealModel, dict]]:
    """Every golden cell as (key, workload, scale, model, config kwargs)."""
    cells = []
    for name in WORKLOAD_NAMES:
        for model in IdealModel:
            for window in KERNEL_WINDOWS:
                cells.append((
                    f"{name}/{model.value}/w{window}",
                    name, KERNEL_SCALE, model, {"window_size": window},
                ))
    for family in FAMILY_NAMES:
        name = family_workload_name(family, FAMILY_VARIANT)
        for model in IdealModel:
            for window in FAMILY_WINDOWS:
                cells.append((
                    f"{name}/{model.value}/w{window}",
                    name, FAMILY_SCALE, model, {"window_size": window},
                ))
    for label, name, overrides in OFF_DEFAULT:
        for model in IdealModel:
            cells.append((
                f"{name}/{model.value}/{label}",
                name, KERNEL_SCALE, model, overrides,
            ))
    return cells


CELLS = golden_cells()


@lru_cache(maxsize=None)
def _trace(name: str, scale: float):
    return annotate(build_workload(name, scale).program)


def result_fields(name: str, scale: float, model: IdealModel, kwargs: dict) -> dict:
    result = simulate(_trace(name, scale), model, IdealConfig(**kwargs))
    fields = dataclasses.asdict(result)
    fields["model"] = result.model.value
    return fields


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize(
    "key,name,scale,model,kwargs", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_ideal_result_matches_golden(golden, key, name, scale, model, kwargs):
    assert result_fields(name, scale, model, kwargs) == golden[key]


def mint() -> None:
    cells = {
        key: result_fields(name, scale, model, kwargs)
        for key, name, scale, model, kwargs in CELLS
    }
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--mint"]:
        raise SystemExit(__doc__)
    mint()
