"""The study-scoped cell memo: each distinct detailed cell simulates once
per ``run_study`` call, with rows identical to unmemoized runs."""

import json

import pytest

from repro.core import Processor
from repro.errors import SimulationHang
from repro.harness import run_study
from repro.harness.spec import (
    SpecProfile,
    get_spec,
    memo_key,
    run_spec_row,
    runnable_experiments,
)
from repro.machines import get_machine

NAME = "vortex"
SCALE = 0.01
#: detailed cells per workload across the 13 runnable artifacts
DETAILED_CELLS = 42
#: distinct materialized CoreConfigs among them, plus Figure 10's TFR
#: cell, which always simulates
DISTINCT_RUNS = 28 + 1


@pytest.fixture
def run_counter(monkeypatch):
    """Count every executed ``Processor.run`` by its config."""
    configs = []
    original = Processor.run

    def counted(self, *args, **kwargs):
        configs.append(self.config)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Processor, "run", counted)
    return configs


def _study(**kwargs):
    return run_study(scale=SCALE, names=(NAME,), **kwargs)


def _cell(spec_name, label):
    cell = next(c for c in get_spec(spec_name).cells if c.label == label)
    return memo_key(NAME, SCALE, cell, cell.machine.resolve())


class TestMemoKey:
    def test_key_is_content_not_name(self):
        ci = _cell("table2", "CI")
        assert _cell("figure17", "postdom") == ci
        assert _cell("figure14", "seg1") == ci
        assert _cell("figure9", "spec-C") == ci
        assert _cell("figure5", "CI/w256") == ci
        assert _cell("figure5", "CI/w128") != ci
        assert _cell("figure13", "base") == _cell("table4", "BASE") != ci

    def test_only_detailed_non_tfr_cells_are_keyed(self):
        assert _cell("figure10", "tfr") is None
        assert _cell("figure3", "oracle/w64") is None
        assert _cell("table1", "trace") is None


class TestStudyMemo:
    def test_rows_equal_unmemoized_rows(self):
        study = _study()
        assert study["failures"] == []
        fresh = {
            exp: {NAME: run_spec_row(exp, NAME, scale=SCALE).data}
            for exp in runnable_experiments()
        }
        assert study["results"] == fresh

    def test_each_distinct_cell_runs_once(self, run_counter):
        study = _study()
        assert study["failures"] == []
        assert len(run_counter) == DISTINCT_RUNS < DETAILED_CELLS

    def test_batched_study_runs_each_distinct_cell_once(self, monkeypatch):
        # The fused driver steps processors without Processor.run, but
        # every simulation, fused or not, starts exactly once.
        started = []
        original = Processor.start

        def counted(self):
            started.append(self.config)
            return original(self)

        monkeypatch.setattr(Processor, "start", counted)
        assert _study(batch=True)["failures"] == []
        assert len(started) == DISTINCT_RUNS

    @pytest.mark.parametrize("knobs", [{}, {"batch": True}])
    def test_profile_marks_memo_hits(self, knobs):
        # Batched, the fused loop profiles each distinct cell's share
        # once; the rows' copies of it are the hits.
        profile = SpecProfile()
        _study(profile=profile, **knobs)
        detailed = {
            key: entry
            for key, entry in profile.cells.items()
            if "stage_cycles" in entry
        }
        hits = [key for key, entry in detailed.items() if entry.get("memo")]
        assert len(detailed) == DETAILED_CELLS
        assert len(hits) == DETAILED_CELLS - DISTINCT_RUNS
        assert f"figure17/{NAME}/postdom" in hits

    def test_failed_cell_is_not_memoized(self, monkeypatch, run_counter):
        base = get_machine("BASE").core_config(window_size=256)
        original = Processor.run  # the counting wrapper

        def flaky(self, *args, **kwargs):
            if self.config == base:
                run_counter.append(self.config)
                raise SimulationHang("injected")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Processor, "run", flaky)
        study = _study(experiments=["table4", "figure13"])
        assert run_counter.count(base) == 2  # the duplicate simulated again
        for exp in ("table4", "figure13"):
            row = study["results"][exp][NAME]
            assert row["error_type"] == "SimulationHang"
        assert len(study["failures"]) == 2

    def test_second_study_simulates_again(self, run_counter):
        _study(experiments=["table2", "table3"])
        _study(experiments=["table2", "table3"])
        assert len(run_counter) == 2

    @pytest.mark.parametrize("knobs", [{"jobs": 2}, {"batch": True}])
    def test_execution_modes_are_byte_identical(self, knobs):
        serial = _study()
        other = _study(**knobs)
        assert other["failures"] == []
        assert other["results"] == serial["results"]
        assert json.dumps(other["results"], sort_keys=True) == json.dumps(
            serial["results"], sort_keys=True
        )
