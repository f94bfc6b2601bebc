"""Golden equivalence suite: every simulator optimization must
reproduce the committed golden statistics bit-for-bit.

``tests/goldens/equivalence_v2.pkl`` holds 18 cells: 2 workloads x
{BASE, CI, CI-I} detailed cores at window 256, plus the 6 idealized
models.  Every golden key is compared exactly — no tolerances.  The
spec registry is held to the same cells: Figure 5's ``CI/w256`` and
Figure 3's twelve window-256 cells, run through ``run_spec``, must
reproduce the golden IPCs exactly.  Re-mint the pickle only for a
change that is meant to move these statistics::

    PYTHONPATH=src python tests/test_equivalence.py --mint
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import replace
import sys
from pathlib import Path

import pytest

from repro.core import CoreConfig, ReconvPolicy, simulate_core
from repro.harness import get_spec, run_spec
from repro.harness.experiments import load_bundle
from repro.ideal.models import IdealConfig, IdealModel
from repro.ideal.scheduler import simulate

GOLDEN_PATH = Path(__file__).parent / "goldens" / "equivalence_v2.pkl"
WORKLOADS = ("compress", "go")
SCALE = 0.12

CORE_MACHINES = {
    "BASE": dict(window_size=256, reconv_policy=ReconvPolicy.NONE),
    "CI": dict(window_size=256, reconv_policy=ReconvPolicy.POSTDOM),
    "CI-I": dict(
        window_size=256,
        reconv_policy=ReconvPolicy.POSTDOM,
        instant_redispatch=True,
    ),
}


@pytest.fixture(scope="module")
def goldens():
    with GOLDEN_PATH.open("rb") as f:
        return pickle.load(f)


@pytest.fixture(scope="module")
def bundles():
    return {name: load_bundle(name, SCALE) for name in WORKLOADS}


def _assert_matches(golden: dict, current: dict, what: str) -> None:
    mismatches = {
        key: (golden[key], current[key])
        for key in golden
        if current.get(key) != golden[key]
    }
    assert not mismatches, f"{what} diverged from its golden: {mismatches}"


def run_cell(bundle, machine: str):
    config = CoreConfig(**CORE_MACHINES[machine])
    return simulate_core(bundle.program, config, bundle.golden, bundle.reconv)


def ideal_fields(bundle, model: IdealModel) -> dict:
    r = simulate(bundle.annotated(), model, IdealConfig(window_size=256))
    return {
        "cycles": r.cycles,
        "retired": r.retired,
        "fetched_wrong_path": r.fetched_wrong_path,
        "full_squashes": r.full_squashes,
        "selective_squashes": r.selective_squashes,
        "detections": r.detections,
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", sorted(CORE_MACHINES))
def test_core_stats_match_goldens(goldens, bundles, workload, machine):
    stats = run_cell(bundles[workload], machine)
    _assert_matches(
        goldens[("core", workload, machine)],
        dataclasses.asdict(stats),
        f"{workload}/{machine}",
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("model", list(IdealModel), ids=lambda m: m.value)
def test_ideal_stats_match_seed(goldens, bundles, workload, model):
    golden = goldens[("ideal", workload, model.value)]
    assert ideal_fields(bundles[workload], model) == golden, (
        f"{workload}/{model.value} diverged from the seed implementation"
    )


def test_retired_env_knobs_do_not_change_results(goldens, bundles, monkeypatch):
    """``REPRO_ORDER`` and ``REPRO_BATCH`` once selected another ROB
    order scheme and cycle driver; the core has one of each now, so
    setting them must leave a golden cell untouched."""
    monkeypatch.setenv("REPRO_ORDER", "v1")
    monkeypatch.setenv("REPRO_BATCH", "1")
    stats = run_cell(bundles["go"], "BASE")
    _assert_matches(
        goldens[("core", "go", "BASE")],
        dataclasses.asdict(stats),
        "go/BASE (REPRO_ORDER=v1, REPRO_BATCH=1)",
    )


def test_registry_cells_match_goldens(goldens):
    def golden_ipc(key):
        return goldens[key]["retired"] / goldens[key]["cycles"]

    def at_256(name, keep=lambda cell: True):
        spec = get_spec(name)
        cells = tuple(c for c in spec.cells if c.key == 256 and keep(c))
        return replace(spec, cells=cells)

    detailed = run_spec(
        at_256("figure5", lambda c: c.group == "CI"), scale=SCALE, names="compress"
    )
    ideal = run_spec(at_256("figure3"), scale=SCALE, names=WORKLOADS)
    current = {("core", "compress", "CI"): detailed["compress"]["CI"][256]}
    for workload in WORKLOADS:
        for model in IdealModel:
            current[("ideal", workload, model.value)] = ideal[workload][model.value][256]
    assert len(current) == 13
    mismatches = {
        key: (value, golden_ipc(key))
        for key, value in current.items()
        if value != golden_ipc(key)
    }
    assert not mismatches, f"run_spec diverged from the goldens: {mismatches}"


def mint() -> None:
    cells: dict = {}
    for workload in WORKLOADS:
        bundle = load_bundle(workload, SCALE)
        for machine in sorted(CORE_MACHINES):
            stats = run_cell(bundle, machine)
            cells[("core", workload, machine)] = dataclasses.asdict(stats)
        for model in IdealModel:
            cells[("ideal", workload, model.value)] = ideal_fields(bundle, model)
    with GOLDEN_PATH.open("wb") as f:
        pickle.dump(cells, f)
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--mint"]:
        raise SystemExit(__doc__)
    mint()
