"""Branch-completion-model golden: every :class:`~repro.core.CoreStats`
field, compared exactly against ``tests/goldens/completion_golden.json``.

The cells cover the gating paths of Appendix A.2's completion models,
which decide when a computed branch may complete and trigger recovery:

* the five kernels x {BASE, CI} x the four
  :class:`~repro.core.CompletionModel`\\ s (in-order branch gating,
  resolved-store gating, both, neither) at scale 0.03, window 256;
* CI with the ``hide_false_mispredictions`` oracle under ``spec-C`` and
  ``spec`` on every kernel, the one configuration whose completion
  condition is not a gate (it depends on repredicts and window
  positions).

The 18 cells of ``tests/test_equivalence.py`` run ``spec-C`` only, on go
and compress; these cells pin the other gates on all five kernels, so
a change to how pending branches are retried (the completion-phase
sweep in :mod:`repro.core.stages.backend`) cannot move any of them
unnoticed.

The golden was minted before pending-branch retries were tied to
gate-opening events; regenerate it only for a change that is meant to
move detailed-core results::

    PYTHONPATH=src python tests/test_completion_golden.py --mint
"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import CompletionModel, simulate_core
from repro.harness.experiments import load_bundle
from repro.machines import get_machine
from repro.workloads import WORKLOAD_NAMES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "completion_golden.json"

SCALE = 0.03
WINDOW = 256
MACHINES = ("BASE", "CI")
HFM_MODELS = (CompletionModel.SPEC_C, CompletionModel.SPEC)


def golden_cells() -> list[tuple[str, str, str, dict]]:
    """Every golden cell as (key, workload, machine, config overrides)."""
    cells = []
    for name in WORKLOAD_NAMES:
        for machine in MACHINES:
            for model in CompletionModel:
                cells.append((
                    f"{name}/{machine}/{model.value}",
                    name, machine, {"completion_model": model},
                ))
        for model in HFM_MODELS:
            cells.append((
                f"{name}/CI/{model.value}/hfm",
                name, "CI",
                {"completion_model": model, "hide_false_mispredictions": True},
            ))
    return cells


CELLS = golden_cells()


@lru_cache(maxsize=None)
def _bundle(name: str):
    return load_bundle(name, SCALE)


def stats_fields(name: str, machine: str, overrides: dict) -> dict:
    config = get_machine(machine).core_config(window_size=WINDOW, **overrides)
    bundle = _bundle(name)
    stats = simulate_core(bundle.program, config, bundle.golden, bundle.reconv)
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize(
    "key,name,machine,overrides", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_core_stats_match_golden(golden, key, name, machine, overrides):
    assert stats_fields(name, machine, overrides) == golden[key]


def mint() -> None:
    cells = {
        key: stats_fields(name, machine, overrides)
        for key, name, machine, overrides in CELLS
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
