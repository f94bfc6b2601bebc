"""Seed cells: go and compress at scale 0.12, window 256, on the
detailed BASE, CI and CI-I cores (``tests/goldens/core_golden.json``,
keys ``<workload>@0.12/<machine>/w256``) and under the six idealized
models (``tests/goldens/ideal_golden.json``, keys
``<workload>@0.12/<model>/w256``).  Every field is compared exactly.

These cells anchor to the seed implementation.  The detailed ones were
minted under the dense ROB order scheme by a mint that refused to run
unless the seed-minted cells still passed, and they share ``cycles``
and ``retired`` with the seed's; the ideal ones' six counters (all but
``model`` and ``window_size``) equal the seed's.  Every simulator
optimization since has reproduced every field bit for bit.  The spec
registry is held to the same cells: Figure 5's ``CI/w256`` and Figure
3's twelve window-256 cells, run through ``run_spec``, must reproduce
the golden IPCs exactly.

The cells belong to the two goldens' tables and are re-minted with
them (``tests/test_core_golden.py --mint``,
``tests/test_ideal_golden.py --mint``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

import golden_table
import test_core_golden as core
import test_ideal_golden as ideal
from repro.harness import get_spec, run_spec
from repro.ideal import IdealModel

CORE_CELLS = core.seed_cells()
IDEAL_CELLS = ideal.seed_cells()


@pytest.fixture(scope="module")
def ideal_golden() -> dict:
    return golden_table.load(ideal.GOLDEN_PATH)


@pytest.mark.parametrize(
    "key", [cell[0] for cell in CORE_CELLS],
    ids=[f"{machine}-{name}" for _, name, _, machine, _ in CORE_CELLS],
)
def test_core_stats_match_goldens(key):
    core.check_cell(key)


@pytest.mark.parametrize(
    "key,name,scale,model,window", IDEAL_CELLS,
    ids=[f"{model.value}-{name}" for _, name, _, model, _ in IDEAL_CELLS],
)
def test_ideal_stats_match_seed(ideal_golden, key, name, scale, model, window):
    assert ideal.result_fields(name, scale, model, window) == ideal_golden[key]


def test_retired_env_knobs_do_not_change_results(monkeypatch):
    """``REPRO_ORDER`` and ``REPRO_BATCH`` once selected another ROB
    order scheme and cycle driver; the core has one of each now, so
    setting them must leave a golden cell untouched."""
    monkeypatch.setenv("REPRO_ORDER", "v1")
    monkeypatch.setenv("REPRO_BATCH", "1")
    key = f"go@{core.SEED_SCALE}/BASE/w256"
    assert dataclasses.asdict(core.processor(key).run()) == core.golden()[key]


def test_registry_cells_match_goldens(ideal_golden):
    """Figure 5's ``CI/w256`` and Figure 3's twelve window-256 cells, run
    through ``run_spec`` at the seed scale, reproduce the golden IPCs."""
    golden = core.golden()

    def at_256(name, keep=lambda cell: True):
        spec = get_spec(name)
        cells = tuple(c for c in spec.cells if c.key == 256 and keep(c))
        return replace(spec, cells=cells)

    scale = core.SEED_SCALE
    detailed = run_spec(
        at_256("figure5", lambda c: c.group == "CI"),
        scale=scale, names="compress",
    )
    ideal_ipc = run_spec(at_256("figure3"), scale=scale, names=core.SEED_WORKLOADS)
    key = f"compress@{scale}/CI/w256"
    current = {key: detailed["compress"]["CI"][256]}
    expected = {key: golden[key]["retired"] / golden[key]["cycles"]}
    for workload in core.SEED_WORKLOADS:
        for model in IdealModel:
            key = f"{workload}@{scale}/{model.value}/w256"
            current[key] = ideal_ipc[workload][model.value][256]
            expected[key] = ideal_golden[key]["retired"] / ideal_golden[key]["cycles"]
    assert len(current) == 13
    assert current == expected
