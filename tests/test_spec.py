"""Spec engine: registry completeness, serialization, selection, drift."""

import json

import pytest

from repro.core import (
    CompletionModel,
    CoreConfig,
    Preemption,
    ReconvPolicy,
)
from repro.errors import ConfigError
from repro.harness import run_study
from repro.harness.experiments import (
    EXPERIMENTS,
    parse_only,
    run_figure5,
    select_study_cells,
    study_cells,
    validate_experiments,
)
from repro.harness.spec import (
    CellRow,
    get_spec,
    resolve_spec,
    run_spec,
    run_spec_row,
    runnable_experiments,
    select_cells,
    spec_from_dict,
    spec_names,
    spec_to_dict,
    SpecProfile,
)
from repro.harness.tables import format_experiment, format_rows

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

    def test_legacy_experiments_map_driven_from_registry(self):
        assert tuple(EXPERIMENTS) == runnable_experiments()

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
    def test_every_spec_round_trips_through_json(self):
        for name in spec_names():
            spec = get_spec(name)
            payload = json.loads(json.dumps(spec_to_dict(spec)))
            assert spec_from_dict(payload) == spec

    def test_round_trip_preserves_enum_overrides(self):
        spec = get_spec("figure9")
        clone = spec_from_dict(spec_to_dict(spec))
        overrides = dict(clone.cells[-1].machine.overrides)
        assert overrides["completion_model"] is CompletionModel.SPEC

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            spec_from_dict({"name": "x"})

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
    def test_run_spec_matches_legacy_shim(self):
        via_spec = run_spec(
            "figure5", scale=SCALE, names=("go",), windows=(128,)
        )
        via_legacy = run_figure5(scale=SCALE, names=("go",), windows=(128,))
        assert json.dumps(via_spec, sort_keys=True) == json.dumps(
            via_legacy, sort_keys=True
        )

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

    def test_profile_collects_stage_cycles(self):
        profile = SpecProfile()
        run_spec(
            "figure5",
            scale=SCALE,
            names=("go",),
            windows=(128,),
            profile=profile,
        )
        key = "figure5/go/CI/w128"
        assert key in profile.cells
        assert "stage_cycles" in profile.cells[key]
        assert profile.total_seconds > 0


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

    def test_checkpoint_identity_ignores_execution_knobs(self):
        base = study_cells(["figure5"], ("go",), SCALE, {})
        profiled = study_cells(
            ["figure5"], ("go",), SCALE, {"profile": SpecProfile()}
        )
        semantic = study_cells(["figure5"], ("go",), SCALE, {"windows": (64,)})
        assert [c.key for c in profiled] == [c.key for c in base]
        assert [c.key for c in semantic] != [c.key for c in base]

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


class TestFormatters:
    def test_format_rows_consumes_cellrows(self):
        rows = [
            run_spec_row("figure5", "go", scale=SCALE, windows=(128,)),
        ]
        text = format_rows(rows)
        assert text.startswith("FIGURE 5.")
        assert "go" in text

    def test_format_experiment_falls_back_to_simple_map(self):
        text = format_experiment("figure12", {"go": {"timing": 1.0}})
        assert "FIGURE 12" in text and "timing" in text

    def test_format_rows_rejects_mixed_experiments(self):
        rows = [
            CellRow(experiment="figure5", workload="go", data={}),
            CellRow(experiment="table2", workload="go", data={}),
        ]
        with pytest.raises(ConfigError, match="one experiment"):
            format_rows(rows)

    def test_format_rows_rejects_empty(self):
        with pytest.raises(ConfigError, match="at least one"):
            format_rows([])
