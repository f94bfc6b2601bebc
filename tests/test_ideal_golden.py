"""Ideal-scheduler golden: every :class:`~repro.ideal.IdealResult` field,
compared exactly against ``tests/goldens/ideal_golden.json``.

The cells cover the paths the Figure 3 sweep exercises:

* the five kernels x six models x windows 64/128/256/512 at scale 0.05,
  where restart-segment eviction (the oldest source squashing the
  youngest correct instruction to make room) fires for every
  control-independence model at every window;
* one variant of each ``fam:<family>:<seed>`` workload family at
  windows 64 and 256;
* Figure 3's 24 ``go`` cells (six models x windows 64/128/256/512) at
  the figure's default scale of 0.4, keyed ``go@0.4/<model>/w<window>``:
  the scale the ledger runs, with restart stacks far deeper than at
  0.05;
* the seed cells, go and compress under the six models at window 256
  and scale 0.12, keyed ``<workload>@0.12/<model>/w256``.  They are
  checked cell by cell in ``tests/test_equivalence.py``, next to the
  detailed seed cells.

The seed cells anchor to the seed implementation: their six counters
(all but ``model`` and ``window_size``) equal the seed's, and every
scheduler rewrite since has reproduced them.
The 180 kernel and family cells were minted from the dict-and-method
scheduler that preceded the inlined cycle loop, the Figure 3 cells from
the ``_Slot``-and-heap scheduler that preceded the columnar one.
Regenerate the golden only for a change that is meant to move ideal
results::

    PYTHONPATH=src python tests/test_ideal_golden.py --mint

The mint prints every added, moved or dropped cell with the fields that
changed (or that nothing moved) before it writes the file
(``tests/golden_table.py``).
"""

from __future__ import annotations

import dataclasses
import sys
from functools import lru_cache

import pytest

import golden_table
from repro.harness.specs import IDEAL_WINDOWS
from repro.ideal import IdealConfig, IdealModel, annotate, simulate
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.families import FAMILY_NAMES, family_workload_name

GOLDEN_PATH = golden_table.GOLDEN_DIR / "ideal_golden.json"

KERNEL_SCALE = 0.05
KERNEL_WINDOWS = (64, 128, 256, 512)
FAMILY_VARIANT = 1
FAMILY_SCALE = 1.0
FAMILY_WINDOWS = (64, 256)
FIGURE3_NAME = "go"
FIGURE3_SCALE = 0.4
SEED_NAMES = ("compress", "go")
SEED_SCALE = 0.12
SEED_WINDOW = 256


def golden_cells() -> list[tuple[str, str, float, IdealModel, int]]:
    """The kernel, family and Figure 3 cells as (key, workload, scale,
    model, window size)."""
    cells = []
    for name in WORKLOAD_NAMES:
        for model in IdealModel:
            for window in KERNEL_WINDOWS:
                cells.append((
                    f"{name}/{model.value}/w{window}",
                    name, KERNEL_SCALE, model, window,
                ))
    for family in FAMILY_NAMES:
        name = family_workload_name(family, FAMILY_VARIANT)
        for model in IdealModel:
            for window in FAMILY_WINDOWS:
                cells.append((
                    f"{name}/{model.value}/w{window}",
                    name, FAMILY_SCALE, model, window,
                ))
    for model in IdealModel:
        for window in IDEAL_WINDOWS:
            cells.append((
                f"{FIGURE3_NAME}@{FIGURE3_SCALE}/{model.value}/w{window}",
                FIGURE3_NAME, FIGURE3_SCALE, model, window,
            ))
    return cells


def seed_cells() -> list[tuple[str, str, float, IdealModel, int]]:
    """The seed cells, pinned by ``tests/test_equivalence.py``."""
    return [
        (f"{name}@{SEED_SCALE}/{model.value}/w{SEED_WINDOW}",
         name, SEED_SCALE, model, SEED_WINDOW)
        for name in SEED_NAMES
        for model in IdealModel
    ]


FIGURE_CELLS = golden_cells()
CELLS = [*FIGURE_CELLS, *seed_cells()]


@lru_cache(maxsize=None)
def _trace(name: str, scale: float):
    return annotate(build_workload(name, scale).program)


def result_fields(name: str, scale: float, model: IdealModel, window: int) -> dict:
    result = simulate(_trace(name, scale), model, IdealConfig(window_size=window))
    fields = dataclasses.asdict(result)
    fields["model"] = result.model.value
    return fields


@pytest.fixture(scope="module")
def golden() -> dict:
    return golden_table.load(GOLDEN_PATH)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize(
    "key,name,scale,model,window", FIGURE_CELLS,
    ids=[cell[0] for cell in FIGURE_CELLS],
)
def test_ideal_result_matches_golden(golden, key, name, scale, model, window):
    assert result_fields(name, scale, model, window) == golden[key]


def test_golden_changes_lists_each_changed_cell():
    old = {"a": {"cycles": 5, "retired": 9}, "b": {"cycles": 1}, "c": {"cycles": 2}}
    new = {"a": {"cycles": 6, "retired": 9}, "b": {"cycles": 1}, "d": {"cycles": 3}}
    assert golden_table.golden_changes(old, new) == [
        "moved   a: cycles 5 -> 6",
        "dropped c",
        'added   d: {"cycles": 3}',
    ]
    assert golden_table.golden_changes(new, new) == []


def mint() -> None:
    cells = {
        key: result_fields(name, scale, model, window)
        for key, name, scale, model, window in CELLS
    }
    golden_table.mint(GOLDEN_PATH, cells)


if __name__ == "__main__":
    if sys.argv[1:] != ["--mint"]:
        raise SystemExit(__doc__)
    mint()
