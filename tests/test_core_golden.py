"""Detailed-core golden: the one cell table of the detailed core and
its golden file, ``tests/goldens/core_golden.json``, which pins every
:class:`~repro.core.CoreStats` field of 136 cells exactly.

Each row of the table is ``(key, workload, scale, machine, overrides)``,
the machine a registry name built through
``get_machine(machine).core_config(**overrides)``.  The rows fall into
four groups, each pinned cell by cell by its own test module, which
says why the group exists:

* 6 seed cells, ``<workload>@0.12/<machine>/w256``
  (``tests/test_equivalence.py``), anchored to the seed implementation;
* 55 kernel cells, ``<kernel>/<variant>`` (``tests/test_kernel_golden.py``);
* 50 completion cells, ``<kernel>/<machine>/<model>[/hfm]``
  (``tests/test_completion_golden.py``);
* 25 recovery cells, ``fam:<family>:<seed>/<machine>``
  (``tests/test_recovery_golden.py``).

Those modules hold no table, golden or mint of their own: each selects
its group's rows from here and checks them through :func:`check_cell`.
Every cell runs once per process (:func:`outcome`), and every cell also
checks the counters the performance ledger reads off a finished
machine: every fetched instruction claimed exactly one pool slot
(``pool.allocated_total``, the ledger's ``core.pool_claims``), and the
allocated slots are exactly the linked ones.

Regenerate the golden only for a change that is meant to move
detailed-core results::

    PYTHONPATH=src python tests/test_core_golden.py --mint

The mint prints every added, moved or dropped cell with the fields that
changed (or that nothing moved) before it writes the file.
"""

from __future__ import annotations

import dataclasses
import sys
from functools import lru_cache
from typing import NamedTuple

import pytest

import golden_table
from repro.core import CompletionModel, Preemption, Processor
from repro.harness.experiments import load_bundle
from repro.machines import get_machine
from repro.workloads import WORKLOAD_NAMES

GOLDEN_PATH = golden_table.GOLDEN_DIR / "core_golden.json"

SEED_SCALE = 0.12
SEED_WORKLOADS = ("compress", "go")
KERNEL_SCALE = 0.03
FAMILY_SCALE = 0.5

#: (label, machine, config overrides), run on every kernel
KERNEL_VARIANTS = (
    *(
        (f"{machine}/w{window}", machine, {"window_size": window})
        for machine in ("CI-I", "CI/loop", "CI/return/loop/ltb")
        for window in (64, 512)
    ),
    *(
        (f"CI/seg{size}", "CI", {"segment_size": size})
        for size in (4, 16)
    ),
    ("CI/simple-preemption", "CI", {"preemption": Preemption.SIMPLE}),
    ("CI/loop/instant", "CI/loop", {"instant_redispatch": True}),
    ("CI/oracle-history", "CI", {"oracle_global_history": True}),
)

#: one program per family, with the deepest restart stack it reaches
#: on ``CI/loop`` on the tree that minted the golden
RECOVERY_PROGRAMS = (
    "fam:branchy:15",  # 223 contexts
    "fam:loopy:26",  # 204
    "fam:callchain:92",  # 58
    "fam:aliasing:93",  # 76
    "fam:chains:79",  # 196
)


def seed_cells() -> list[tuple]:
    return [
        (f"{name}@{SEED_SCALE}/{machine}/w256", name, SEED_SCALE, machine,
         {"window_size": 256})
        for name in SEED_WORKLOADS
        for machine in ("BASE", "CI", "CI-I")
    ]


def kernel_cells() -> list[tuple]:
    return [
        (f"{name}/{label}", name, KERNEL_SCALE, machine, overrides)
        for name in WORKLOAD_NAMES
        for label, machine, overrides in KERNEL_VARIANTS
    ]


def completion_cells() -> list[tuple]:
    cells = []
    for name in WORKLOAD_NAMES:
        for machine in ("BASE", "CI"):
            for model in CompletionModel:
                cells.append((
                    f"{name}/{machine}/{model.value}", name, KERNEL_SCALE,
                    machine, {"window_size": 256, "completion_model": model},
                ))
        for model in (CompletionModel.SPEC_C, CompletionModel.SPEC):
            cells.append((
                f"{name}/CI/{model.value}/hfm", name, KERNEL_SCALE, "CI",
                {"window_size": 256, "completion_model": model,
                 "hide_false_mispredictions": True},
            ))
    return cells


def recovery_cells() -> list[tuple]:
    return [
        (f"{name}/{machine}", name, FAMILY_SCALE, machine, {})
        for name in RECOVERY_PROGRAMS
        for machine in ("BASE", "CI", "CI-I", "CI/loop", "CI/return/loop")
    ]


#: every golden cell as (key, workload, scale, machine, config overrides)
CELLS = [*seed_cells(), *kernel_cells(), *completion_cells(), *recovery_cells()]
ROWS = {cell[0]: cell for cell in CELLS}


@lru_cache(maxsize=None)
def bundle(name: str, scale: float):
    return load_bundle(name, scale)


def processor(key: str) -> Processor:
    """The cell's machine, built and not yet run."""
    _, name, scale, machine, overrides = ROWS[key]
    cell = bundle(name, scale)
    config = get_machine(machine).core_config(**overrides)
    return Processor(cell.program, config, cell.golden, cell.reconv)


class Outcome(NamedTuple):
    stats: dict
    pool_claims: int
    pool_live: int
    linked: int


@lru_cache(maxsize=None)
def outcome(key: str) -> Outcome:
    """The cell's ``CoreStats`` fields and pool counters after one run."""
    machine = processor(key)
    stats = machine.run()
    return Outcome(
        dataclasses.asdict(stats),
        machine.pool.allocated_total,
        machine.pool.live,
        machine.rob.count,
    )


@lru_cache(maxsize=None)
def golden() -> dict:
    return golden_table.load(GOLDEN_PATH)


def check_pool_counters(key: str) -> None:
    run = outcome(key)
    assert run.pool_claims == run.stats["fetched"]
    assert run.pool_live == run.linked


def check_cell(key: str) -> None:
    """Every ``CoreStats`` field of the cell equals its golden, and its
    pool counters match the window."""
    assert outcome(key).stats == golden()[key]
    check_pool_counters(key)


def check_group_covered(keys: list[str]) -> None:
    """A group's cells are distinct rows of the table, each in the golden."""
    assert len(set(keys)) == len(keys)
    assert set(keys) <= ROWS.keys()
    assert set(keys) <= golden().keys()


def test_golden_covers_every_cell():
    assert sorted(golden()) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize("name", ["core_golden.json", "ideal_golden.json"])
def test_golden_file_is_canonical(name):
    """``json.load`` keeps the last of two duplicate keys and accepts any
    order, so only the bytes show a duplicated or hand-edited line."""
    path = golden_table.GOLDEN_DIR / name
    assert path.read_text() == golden_table.render(golden_table.load(path))


def mint() -> None:
    cells = {key: outcome(key).stats for key in ROWS}
    golden_table.mint(GOLDEN_PATH, cells)


if __name__ == "__main__":
    if sys.argv[1:] != ["--mint"]:
        raise SystemExit(__doc__)
    mint()
