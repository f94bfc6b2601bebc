"""Recovery-heavy golden: every :class:`~repro.core.CoreStats` field,
compared exactly against ``tests/goldens/recovery_golden.json``.

The detailed goldens elsewhere run the five kernels, whose restart
stacks stay shallow.  These cells run one generated ``fam:*`` program
per workload family at the fuzz campaign's scale (0.5) on the machines
that nest restart sequences (Appendix A.1) the deepest:

* BASE, as the no-control-independence reference;
* CI and CI-I, exact post-dominator reconvergence;
* ``CI/loop`` and ``CI/return/loop``, the loop heuristics, whose
  restart stacks reach about 200 contexts on the branchy, loopy and
  chains programs below.

Each program was picked from campaign seed 0 because every one of these
machines runs it cleanly (its final architectural state matches the
functional reference) and because it nests restarts deeply.  So a change
to context pruning, squash order or per-instruction pool state that
moves any statistic fails here.

Regenerate the golden only for a change that is meant to move
detailed-core results::

    PYTHONPATH=src python tests/test_recovery_golden.py --mint
"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import simulate_core
from repro.harness.experiments import load_bundle
from repro.machines import get_machine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "recovery_golden.json"

SCALE = 0.5
#: one program per family, with the deepest restart stack it reaches
#: on ``CI/loop`` on the tree that minted the golden
PROGRAMS = (
    "fam:branchy:15",  # 223 contexts
    "fam:loopy:26",  # 204
    "fam:callchain:92",  # 58
    "fam:aliasing:93",  # 76
    "fam:chains:79",  # 196
)
MACHINES = ("BASE", "CI", "CI-I", "CI/loop", "CI/return/loop")

CELLS = [
    (f"{name}/{machine}", name, machine)
    for name in PROGRAMS
    for machine in MACHINES
]


@lru_cache(maxsize=None)
def _bundle(name: str):
    return load_bundle(name, SCALE)


def stats_fields(name: str, machine: str) -> dict:
    config = get_machine(machine).core_config()
    bundle = _bundle(name)
    stats = simulate_core(bundle.program, config, bundle.golden, bundle.reconv)
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize("key,name,machine", CELLS, ids=[cell[0] for cell in CELLS])
def test_core_stats_match_golden(golden, key, name, machine):
    assert stats_fields(name, machine) == golden[key]


def mint() -> None:
    cells = {key: stats_fields(name, machine) for key, name, machine in CELLS}
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
