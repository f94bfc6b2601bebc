"""Spec engine: registry completeness, selection, drift, formatting."""

import pytest

from repro.core import (
    CompletionModel,
    CoreConfig,
    Preemption,
    ReconvPolicy,
)
import repro.harness.experiments as experiments_mod
import repro.harness.parallel as parallel_mod
from repro.errors import ConfigError
from repro.harness import run_study
from repro.harness.experiments import (
    parse_only,
    select_study_cells,
    study_cells,
    validate_experiments,
)
import repro.harness.spec as spec_mod
from repro.harness.spec import (
    CellRow,
    assemble_rows,
    get_spec,
    resolve_spec,
    run_spec,
    run_spec_row,
    runnable_experiments,
    select_cells,
    spec_names,
    study_artifacts,
)
from repro.harness.tables import format_experiment

SCALE = 0.02

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
        out = run_spec("figure6", scale=SCALE, names=("go",), )
        assert set(out) == {"go"}
        assert set(out["go"]) == {128, 256, 512}

    def test_builder_params_rematerialize(self):
        spec = resolve_spec("figure5", {"windows": (64,)})
        assert spec.cell_labels() == ("BASE/w64", "CI/w64", "CI-I/w64")

    def test_unknown_builder_param_rejected(self):
        with pytest.raises(ConfigError, match="figure5"):
            run_spec("figure5", scale=SCALE, names=("go",), bogus=1)

    def test_unknown_builder_param_lists_the_knobs(self):
        with pytest.raises(ConfigError) as info:
            resolve_spec("figure14", {"windows": (64,)})
        message = str(info.value)
        assert "'figure14' has no knob ['windows']" in message
        assert "knobs are ['window', 'segments']" in message

    def test_rejected_builder_value_names_the_parameter(self):
        # ``windows`` is a Figure 5 knob; the builder rejects the value.
        with pytest.raises(ConfigError, match=r"'figure5' rejected windows=256"):
            run_spec("figure5", windows=256)


class TestCellSelection:
    def test_select_cells_subsets_in_spec_order(self):
        spec = select_cells(get_spec("figure5"), ["CI/w256", "BASE/w128"])
        assert spec.cell_labels() == ("BASE/w128", "CI/w256")

    def test_select_cells_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="no-such-cell"):
            select_cells(get_spec("figure5"), ["no-such-cell"])

    def test_select_cells_on_derived_spec_rejected(self):
        with pytest.raises(ConfigError, match="derives"):
            select_cells(get_spec("figure6"), ["BASE/w128"])

    def test_run_spec_row_with_cell_subset(self):
        row = run_spec_row(
            "figure5", "go", scale=SCALE, cells=["CI/w128"], windows=(128, 256)
        )
        assert row.data == {"CI": {128: pytest.approx(row.data["CI"][128])}}
        assert set(row.data) == {"CI"}

    def test_run_spec_with_cell_subset(self):
        out = run_spec(
            "figure5", scale=SCALE, names=("go",), cells=["BASE/w128"]
        )
        assert set(out["go"]) == {"BASE"}
        assert set(out["go"]["BASE"]) == {128}


class TestStudySelection:
    def test_parse_only_accepts_strings_and_pairs(self):
        assert parse_only(["figure5:go", "table2", ("table4", None)]) == [
            ("figure5", "go"),
            ("table2", None),
            ("table4", None),
        ]

    def test_parse_only_takes_a_bare_string(self):
        assert parse_only("table2") == [("table2", None)]
        assert parse_only("figure5:go") == [("figure5", "go")]
        with pytest.raises(ConfigError, match="selector 'figure99'"):
            parse_only("figure99")

    def test_run_study_takes_bare_string_selections(self):
        for kwargs in (
            dict(experiments="table2"),
            dict(experiments=["table1", "table2"], only="table2"),
        ):
            out = run_study(scale=SCALE, names=("go",), **kwargs)
            assert out["failures"] == []
            assert list(out["results"]) == ["table2"]

    def test_parse_only_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError, match="figure99"):
            parse_only(["figure99:go"])

    def test_select_study_cells_filters_grid(self):
        cells = study_cells(["figure5", "table2"], ("go", "compress"), SCALE, {})
        selected = select_study_cells(cells, ["figure5:go", "table2"])
        keys = [(c.experiment, c.workload) for c in selected]
        assert keys == [
            ("figure5", "go"),
            ("table2", "go"),
            ("table2", "compress"),
        ]

    def test_checkpoint_identity_ignores_execution_knobs(self, tmp_path):
        base = study_cells(["figure5"], ("go",), SCALE, {})
        semantic = study_cells(["figure5"], ("go",), SCALE, {"windows": (64,)})
        assert [c.key for c in semantic] != [c.key for c in base]
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
        [({"windowz": 3}, "windowz"), ({"cells": ["nope"]}, "nope")],
        ids=["unknown-knob", "unknown-cell"],
    )
    def test_run_study_rejects_bad_knobs_before_any_cell_runs(
        self, monkeypatch, jobs, knobs, match
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell ran before the knobs were checked")

        monkeypatch.setattr(experiments_mod, "run_spec_row", must_not_run)
        monkeypatch.setattr(parallel_mod, "run_pool", must_not_run)
        with pytest.raises(ConfigError, match=match):
            run_study(["table1", "figure5"], scale=SCALE, names=("go",),
                      jobs=jobs, **knobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_knob_value_degrades_per_cell(self, jobs):
        out = run_study(["figure5"], scale=SCALE, names=("go",), jobs=jobs,
                        windows=(-1,))
        row = out["results"]["figure5"]["go"]
        assert row["error_type"] == "ConfigError"
        assert len(out["failures"]) == 1

    def test_select_study_cells_rejects_unmatched_selector(self):
        cells = study_cells(["figure5"], ("go",), SCALE, {})
        with pytest.raises(ConfigError, match="matched no study cells"):
            select_study_cells(cells, ["figure5:vortex"])

    def test_run_study_only_runs_the_subset(self):
        out = run_study(
            experiments=["table1", "table2"],
            scale=SCALE,
            names=("go", "compress"),
            only=["table1:go"],
        )
        assert out["failures"] == []
        assert set(out["results"]) == {"table1"}
        assert [r["benchmark"] for r in [out["results"]["table1"]["go"]]] == ["go"]


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
            run_spec_row("figure5", "go", scale=SCALE, windows=(128,)),
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
