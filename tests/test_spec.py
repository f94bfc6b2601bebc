"""Spec engine: registry completeness, selection, drift, formatting."""

from dataclasses import replace

import pytest

from repro.core import (
    CompletionModel,
    CoreConfig,
    Preemption,
    ReconvPolicy,
)
import repro.harness.experiments as experiments_mod
import repro.harness.parallel as parallel_mod
from repro.errors import ConfigError, WorkloadError
from repro.harness import run_study
from repro.harness.experiments import study_cells, validate_experiments
from repro.harness.runner import config_hash
import repro.harness.spec as spec_mod
from repro.harness.spec import (
    CellRow,
    assemble_rows,
    get_spec,
    run_spec,
    run_spec_row,
    runnable_experiments,
    spec_names,
    study_artifacts,
)
from repro.harness.tables import format_experiment

SCALE = 0.02


def cells_of(name, keep):
    """A copy of a registry spec with only the cells ``keep`` accepts:
    the one way to narrow a single artifact."""
    spec = get_spec(name)
    return replace(spec, cells=tuple(c for c in spec.cells if keep(c)))

#: every artifact the repo reproduces from the paper
PAPER_ARTIFACTS = {
    "Table 1",
    "Table 2",
    "Table 3",
    "Table 4",
    "Figure 3",
    "Figure 5",
    "Figure 6",
    "Figure 8",
    "Figure 9",
    "Figure 10",
    "Figure 12",
    "Figure 13",
    "Figure 14",
    "Figure 17",
}


class TestRegistryCompleteness:
    def test_every_paper_artifact_has_a_spec(self):
        registered = {get_spec(name).artifact for name in spec_names()}
        assert registered == PAPER_ARTIFACTS

    def test_every_spec_validates(self):
        for name in spec_names():
            get_spec(name).validate()

    def test_runnable_excludes_derived_views(self):
        runnable = runnable_experiments()
        assert "figure6" not in runnable  # derives from figure5
        assert set(runnable) == set(spec_names()) - {"figure6"}

    def test_validate_experiments_defaults_to_registry(self):
        assert validate_experiments() == list(runnable_experiments())

    def test_validate_experiments_rejects_unknown(self):
        with pytest.raises(ConfigError, match="figure99"):
            validate_experiments(["figure5", "figure99"])

    def test_validate_experiments_takes_a_bare_string(self):
        assert validate_experiments("table2") == ["table2"]
        with pytest.raises(ConfigError, match="'figure99'"):
            validate_experiments("figure99")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError, match="figure99"):
            get_spec("figure99")


class TestSerialization:
    def test_cellrow_payload_round_trip(self):
        row = CellRow(experiment="figure5", workload="go", data={"a": 1})
        assert CellRow.from_payload(row.to_payload()) == row

    def test_malformed_cellrow_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            CellRow.from_payload({"workload": "go"})


class TestConfigDrift:
    """The registry must materialize exactly what the figures ran."""

    def test_figure5_cells_match_legacy_configs(self):
        legacy = {
            "BASE": dict(reconv_policy=ReconvPolicy.NONE),
            "CI": dict(reconv_policy=ReconvPolicy.POSTDOM),
            "CI-I": dict(
                reconv_policy=ReconvPolicy.POSTDOM, instant_redispatch=True
            ),
        }
        spec = get_spec("figure5")
        assert spec.cells  # non-empty by construction
        for cell in spec.cells:
            expected = CoreConfig(window_size=cell.key, **legacy[cell.group])
            assert cell.machine.materialize() == expected

    def test_figure8_cells_match_legacy_configs(self):
        by_label = {c.label: c for c in get_spec("figure8").cells}
        assert set(by_label) == {"simple", "optimal"}
        for label, preemption in (
            ("simple", Preemption.SIMPLE),
            ("optimal", Preemption.OPTIMAL),
        ):
            expected = CoreConfig(
                window_size=256,
                reconv_policy=ReconvPolicy.POSTDOM,
                preemption=preemption,
            )
            assert by_label[label].machine.materialize() == expected

    def test_figure10_cell_matches_legacy_config(self):
        (cell,) = get_spec("figure10").cells
        expected = CoreConfig(
            window_size=256,
            reconv_policy=ReconvPolicy.POSTDOM,
            completion_model=CompletionModel.SPEC,
        )
        assert cell.machine.materialize() == expected
        assert cell.tfr == ("static", "dynamic_pc", "dynamic_xor")


class TestEngine:
    def test_derived_spec_runs_end_to_end(self):
        out = run_spec("figure6", scale=SCALE, names=("go",))
        assert set(out) == {"go"}
        assert set(out["go"]) == {128, 256, 512}

    def test_failed_figure5_row_passes_through_figure6(self):
        good = {"BASE": {256: 1.0}, "CI": {256: 1.5}}
        failed = {"error": "injected", "error_type": "SimulationHang",
                  "attempts": 1}
        data = study_artifacts({"figure5": {"go": failed, "gcc": good}})
        assert data["figure6"] == {"go": failed, "gcc": {256: 50.0}}

    def test_unknown_builder_param_rejected(self):
        # Registry entries are fixed specs: there are no builder knobs.
        with pytest.raises(TypeError, match="bogus"):
            run_spec("figure5", scale=SCALE, names=("go",), bogus=1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [(dict(scale=0.01, names=("go", "nope")), "nope"),
         (dict(scale=-1.0, names=("go",)), "scale")],
        ids=["unknown-name", "bad-scale"],
    )
    def test_run_spec_checks_names_before_any_row_runs(
        self, monkeypatch, kwargs, match
    ):
        def must_not_run(*args, **kw):
            raise AssertionError("a row ran before the names were checked")

        monkeypatch.setattr(spec_mod, "run_spec_row", must_not_run)
        with pytest.raises(WorkloadError, match=match):
            run_spec("table2", **kwargs)

    def test_run_spec_runs_a_repeated_name_once(self):
        rows = run_spec("table1", scale=SCALE, names=("go", "vortex", "go"))
        assert [row["benchmark"] for row in rows] == ["go", "vortex"]


class TestCellSelection:
    def test_run_spec_row_with_cell_subset(self):
        row = run_spec_row(
            cells_of("figure5", lambda c: c.label == "CI/w128"), "go", scale=SCALE
        )
        assert set(row.data) == {"CI"}
        assert set(row.data["CI"]) == {128}

    def test_run_spec_with_cell_subset(self):
        out = run_spec(
            cells_of("figure5", lambda c: c.label == "BASE/w128"),
            scale=SCALE,
            names=("go",),
        )
        assert set(out["go"]) == {"BASE"}
        assert set(out["go"]["BASE"]) == {128}

    def test_empty_cell_subset_rejected(self):
        with pytest.raises(ConfigError, match="must either declare cells"):
            run_spec(cells_of("figure5", lambda c: c.label == "CI/w265"),
                     scale=SCALE, names=("go",))


class TestStudySelection:
    def test_run_study_takes_bare_string_selections(self):
        out = run_study(experiments="table2", scale=SCALE, names=("go",))
        assert out["failures"] == []
        assert list(out["results"]) == ["table2"]

    def test_checkpoint_identity_ignores_execution_knobs(self, tmp_path):
        # A study cell's checkpoint identity is its experiment alone.
        (cell,) = study_cells(["figure5"], ("go",), SCALE)
        assert cell.config_hash == config_hash({"experiment": "figure5"})
        # jobs / timeout / cache_dir choose how a study runs, not what
        # its rows hold: a checkpoint resumes under any of them.
        path = tmp_path / "study.json"
        run_study(["table1"], scale=SCALE, names=("go",), checkpoint_path=path)
        again = run_study(
            ["table1"], scale=SCALE, names=("go",), checkpoint_path=path,
            jobs=2, timeout_seconds=60, cache_dir=tmp_path / "cache",
        )
        assert again["resumed"] == 1 and again["failures"] == []

    def test_run_study_takes_a_bare_workload_name(self):
        out = run_study(["table1"], scale=SCALE, names="go")
        assert out["failures"] == []
        assert list(out["results"]["table1"]) == ["go"]

    def test_run_spec_takes_a_bare_workload_name(self):
        rows = run_spec("table1", scale=SCALE, names="go")
        assert [row["benchmark"] for row in rows] == ["go"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "knobs, match",
        [({"windowz": 3}, "windowz"), ({"cells": ["nope"]}, "cells")],
        ids=["unknown-knob", "unknown-cell"],
    )
    def test_run_study_rejects_bad_knobs_before_any_cell_runs(
        self, monkeypatch, jobs, knobs, match
    ):
        # A study is narrowed by experiments x names only: builder knobs
        # and cell labels are not arguments of run_study.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell ran before the knobs were checked")

        monkeypatch.setattr(experiments_mod, "run_spec_row", must_not_run)
        monkeypatch.setattr(parallel_mod, "run_pool", must_not_run)
        with pytest.raises(TypeError, match=match):
            run_study(["table1", "figure5"], scale=SCALE, names=("go",),
                      jobs=jobs, **knobs)


#: the first line each artifact prints, as the registry's formatters
#: print it (one line per spec, in paper order)
FIRST_LINES = {
    "table1": "TABLE 1. Benchmark information.",
    "figure3": "FIGURE 3. IPC of the six idealized models vs window size.",
    "figure5": "FIGURE 5. IPC with and without control independence.",
    "figure6": "FIGURE 6. Percent IPC improvement of CI over BASE.",
    "table2": "TABLE 2. Statistics for restart/redispatch sequences.",
    "table3": "TABLE 3. Work saved by exploiting control independence.",
    "table4": "TABLE 4. Instruction issues per retired instruction.",
    "figure8": "FIGURE 8. Simple vs optimal preemption",
    "figure9": "FIGURE 9. Branch completion models and false mispredictions",
    "figure10": "FIGURE 10. False-misprediction coverage while delaying "
    "10% / 20% of true mispredictions.",
    "figure12": "FIGURE 12. Oracle global branch history",
    "figure13": "FIGURE 13. Re-predict sequences",
    "figure14": "FIGURE 14. Segmented reorder buffers",
    "figure17": "FIGURE 17. Hardware reconvergence heuristics, percent over BASE",
}


class TestFormatters:
    def test_format_experiment_consumes_cellrows(self):
        rows = [
            run_spec_row(cells_of("figure5", lambda c: c.key == 128), "go",
                         scale=SCALE),
        ]
        text = format_experiment("figure5", assemble_rows(get_spec("figure5"), rows))
        assert text.startswith("FIGURE 5.")
        assert "go" in text

    def test_format_experiment_falls_back_to_simple_map(self):
        text = format_experiment("figure12", {"go": {"timing": 1.0}})
        assert "FIGURE 12" in text and "timing" in text

    @pytest.mark.parametrize("name", spec_names())
    def test_empty_result_prints_the_title(self, name):
        spec = get_spec(name)
        text = format_experiment(name, [] if spec.shape == "rows" else {})
        assert text.splitlines()[0].startswith(spec.artifact.upper() + ".")

    def test_every_spec_prints_through_its_own_formatter(self):
        study = run_study(scale=0.01, names="vortex")
        assert study["failures"] == []
        data = study_artifacts(study["results"])
        first_lines = {
            name: format_experiment(name, data[name]).splitlines()[0]
            for name in spec_names()
        }
        assert first_lines == FIRST_LINES
        # Figure 17 prints percent improvements, Figure 12 plain IPCs.
        assert format_experiment("figure17", data["figure17"]).endswith("%")
        assert not format_experiment("figure12", data["figure12"]).endswith("%")


class TestStudyDeduplication:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_names_run_one_row(self, monkeypatch, tmp_path, jobs):
        # Log every row to a file: forked pool workers inherit the patch
        # but not the parent's memory.
        log = tmp_path / "rows.log"
        original = spec_mod.run_spec_row

        def logged(experiment, workload, *args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{experiment}/{workload}\n")
            return original(experiment, workload, *args, **kwargs)

        monkeypatch.setattr(spec_mod, "run_spec_row", logged)
        monkeypatch.setattr(experiments_mod, "run_spec_row", logged)
        out = run_study(["table2", "table2"], scale=0.01,
                        names=("vortex", "vortex"), jobs=jobs)
        assert out["failures"] == []
        assert list(out["results"]) == ["table2"]
        assert list(out["results"]["table2"]) == ["vortex"]
        assert log.read_text().splitlines() == ["table2/vortex"]
