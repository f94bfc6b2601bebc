"""Array-batched cycle driver: knob resolution, round-robin stepping,
byte-identical wiring through the spec engine, and study-level fusion."""

import gc
import time

import pytest

from repro.core import CoreConfig, Processor, ReconvPolicy
from repro.errors import SimulationHang
from repro.harness import load_bundle, run_study
from repro.harness.batch import batch_enabled, run_batch, run_batch_isolated
from repro.harness.experiments import study_cells
from repro.harness.runner import CellRunner, RunnerConfig
from repro.harness.spec import (
    SpecProfile,
    prepare_study_batch,
    run_spec,
    run_spec_row,
)
from repro.machines import get_machine

SCALE = 0.02


@pytest.fixture(scope="module")
def bundle():
    return load_bundle("go", SCALE)


class TestBatchEnabled:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        assert batch_enabled(True) is True
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert batch_enabled(False) is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "YES"])
    def test_env_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH", raw)
        assert batch_enabled() is True

    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "No"])
    def test_env_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH", raw)
        assert batch_enabled() is False

    def test_unset_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batch_enabled() is False

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "sideways")
        with pytest.raises(ValueError, match="REPRO_BATCH"):
            batch_enabled()


def _processors(bundle, n=2, **knobs):
    return [
        Processor(
            bundle.program,
            CoreConfig(window_size=64, **knobs),
            bundle.golden,
            bundle.reconv,
        )
        for _ in range(n)
    ]


class TestRunBatch:
    def test_interleaved_equals_serial(self, bundle):
        configs = (
            dict(reconv_policy=ReconvPolicy.NONE),
            dict(reconv_policy=ReconvPolicy.POSTDOM),
            dict(reconv_policy=ReconvPolicy.POSTDOM, instant_redispatch=True),
        )
        serial = [
            Processor(
                bundle.program,
                CoreConfig(window_size=64, **knobs),
                bundle.golden,
                bundle.reconv,
            ).run()
            for knobs in configs
        ]
        batched = run_batch(
            Processor(
                bundle.program,
                CoreConfig(window_size=64, **knobs),
                bundle.golden,
                bundle.reconv,
            )
            for knobs in configs
        )
        assert batched == serial

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_results_in_input_order(self, bundle):
        a, b = run_batch(_processors(bundle, 2))
        assert a == b  # identical machines land in their own slots

    def test_gc_restored_after_failure(self, bundle):
        (proc,) = _processors(bundle, 1, max_cycles=5)
        assert gc.isenabled()
        with pytest.raises(SimulationHang):
            run_batch([proc])
        assert gc.isenabled(), "collector must be re-enabled on failure"


class TestRunBatchIsolated:
    def test_matches_run_batch_on_clean_processors(self, bundle):
        stats = run_batch(_processors(bundle, 2))
        outcomes = run_batch_isolated(_processors(bundle, 2))
        assert [tag for tag, _ in outcomes] == ["ok", "ok"]
        assert [payload for _, payload in outcomes] == stats

    def test_failure_isolated_to_its_slot(self, bundle):
        good_serial = _processors(bundle, 1)[0].run()
        (bad,) = _processors(bundle, 1, max_cycles=5)
        (good,) = _processors(bundle, 1)
        outcomes = run_batch_isolated([bad, good])
        tag, exc = outcomes[0]
        assert tag == "error" and isinstance(exc, SimulationHang)
        assert outcomes[1] == ("ok", good_serial)
        assert gc.isenabled()

    def test_empty(self):
        assert run_batch_isolated([]) == []


def _prepare(pairs, **experiment_kwargs):
    memo = {}
    prepare_study_batch(
        pairs, memo, scale=SCALE, experiment_kwargs=experiment_kwargs
    )
    return memo


class TestStudyBatchPrepare:
    def test_prepared_rows_match_scalar(self):
        memo = _prepare([("figure5", "go")])
        assert len(memo) == 9  # every detailed figure5 cell pre-simulated
        assert all(key[:2] == ("go", SCALE) for key in memo)
        row = run_spec_row("figure5", "go", scale=SCALE, memo=memo)
        assert row == run_spec_row("figure5", "go", scale=SCALE)

    def test_derived_spec_shares_base_cells(self):
        # figure6 derives from figure5: preparing both plans the base
        # cells once, and the one memo serves both rows.
        memo = _prepare([("figure5", "go"), ("figure6", "go")])
        assert len(memo) == 9
        derived = run_spec_row("figure6", "go", scale=SCALE, memo=memo)
        assert derived == run_spec_row("figure6", "go", scale=SCALE)

    def test_shared_cells_prepared_once(self):
        # table2's CI@256 is figure5's CI/w256; table4 adds nothing new.
        memo = {}
        prepare_study_batch([("figure5", "go")], memo, scale=SCALE)
        before = dict(memo)
        prepare_study_batch(
            [("table2", "go"), ("table4", "go")], memo, scale=SCALE
        )
        assert memo == before

    def test_program_only_specs_left_to_scalar_path(self):
        assert _prepare([("table1", "go")]) == {}

    def test_bogus_workload_left_to_scalar_path(self):
        assert _prepare([("figure5", "no-such-workload")]) == {}

    def test_prepared_profile_records_every_cell(self):
        prepared_prof, scalar_prof = SpecProfile(), SpecProfile()
        memo = _prepare([("figure5", "go")], profile=prepared_prof)
        fused = dict(prepared_prof.cells)
        assert len(fused) == len(memo) == 9
        run_spec_row(
            "figure5", "go", scale=SCALE, memo=memo, profile=prepared_prof
        )
        run_spec_row("figure5", "go", scale=SCALE, profile=scalar_prof)
        assert set(prepared_prof.cells) == set(scalar_prof.cells)
        # the row's memo reads keep the fused loop's real-simulation entry
        assert {key: prepared_prof.cells[key] for key in fused} == fused
        assert not any(e.get("memo") for e in prepared_prof.cells.values())
        assert not any(e.get("memo") for e in scalar_prof.cells.values())

    def test_prepared_error_reraises_for_the_cell(self, monkeypatch):
        # A cell that failed inside the fused loop is not memoized: its
        # row simulates it again, and that run's error is the cell's.
        import repro.harness.spec as spec_module

        def first_fails(procs):
            outcomes = run_batch_isolated(procs)
            outcomes[0] = ("error", SimulationHang("fused"))
            return outcomes

        monkeypatch.setattr(spec_module, "run_batch_isolated", first_fails)
        memo = _prepare([("figure5", "go")])
        assert len(memo) == 8

        def hang(self):
            raise SimulationHang("injected")

        monkeypatch.setattr(Processor, "run", hang)
        with pytest.raises(SimulationHang, match="injected"):
            run_spec_row("figure5", "go", scale=SCALE, memo=memo)

    def test_hung_fused_cell_times_out_in_every_row(self, monkeypatch):
        # BASE@256 fails in the fused loop, then hangs when its rows
        # simulate it again: each row, on each attempt, runs it under the
        # row's timeout, so the rows report CellTimeout, not the fused
        # loop's SimulationHang.
        import repro.harness.spec as spec_module

        base = get_machine("BASE").core_config(window_size=256)

        def base_fails(procs):
            rest = iter(run_batch_isolated([p for p in procs if p.config != base]))
            return [
                ("error", SimulationHang("fused")) if p.config == base else next(rest)
                for p in procs
            ]

        hung = []
        original = Processor.start

        def hang_on_base(self):
            if self.config == base:
                hung.append(self.config)
                time.sleep(5)
            return original(self)

        monkeypatch.setattr(spec_module, "run_batch_isolated", base_fails)
        monkeypatch.setattr(Processor, "start", hang_on_base)
        runner = CellRunner(
            RunnerConfig(timeout_seconds=0.2, max_attempts=2, backoff_seconds=0)
        )
        study = run_study(
            experiments=["table4", "figure13"],
            scale=SCALE,
            names=("go",),
            runner=runner,
            batch=True,
        )
        assert len(hung) == 2 * 2  # two rows, two attempts each
        for exp in ("table4", "figure13"):
            row = study["results"][exp]["go"]
            assert row["error_type"] == "CellTimeout"


class TestStudyLevelBatching:
    def test_serial_study_batched_matches_scalar(self):
        kwargs = dict(experiments=["figure5", "table2"], scale=SCALE, names=("go",))
        scalar = run_study(**kwargs)
        batched = run_study(batch=True, **kwargs)
        assert scalar["failures"] == [] and batched["failures"] == []
        assert batched["results"] == scalar["results"]

    def test_checkpoint_identity_ignores_execution_knobs(self):
        base = study_cells(["figure5"], ("go",), SCALE, {})
        batched = study_cells(
            ["figure5"],
            ("go",),
            SCALE,
            {"batch": True, "profile": SpecProfile()},
        )
        semantic = study_cells(["figure5"], ("go",), SCALE, {"windows": (64,)})
        assert [c.key for c in batched] == [c.key for c in base]
        assert [c.key for c in semantic] != [c.key for c in base]

    def test_scalar_checkpoint_resumes_batched(self, tmp_path):
        kwargs = dict(
            experiments=["figure5"],
            scale=SCALE,
            names=("go",),
            checkpoint_path=str(tmp_path / "study.json"),
        )
        first = run_study(**kwargs)
        assert first["resumed"] == 0 and first["failures"] == []
        second = run_study(batch=True, **kwargs)
        assert second["resumed"] == 1  # REPRO_BATCH toggles share identity
        # checkpointed rows round-trip through JSON (int keys -> str)
        import json

        assert json.dumps(second["results"], sort_keys=True) == json.dumps(
            json.loads(json.dumps(first["results"])), sort_keys=True
        )


class TestSpecWiring:
    def test_run_spec_row_batched_is_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        scalar = run_spec_row("figure5", "go", scale=SCALE)
        batched = run_spec_row("figure5", "go", scale=SCALE, batch=True)
        assert batched == scalar

    def test_run_spec_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        scalar = run_spec("figure5", scale=SCALE, names=("go",))
        monkeypatch.setenv("REPRO_BATCH", "1")
        batched = run_spec("figure5", scale=SCALE, names=("go",))
        assert batched == scalar

    def test_batched_profile_records_every_cell(self):
        scalar_prof, batched_prof = SpecProfile(), SpecProfile()
        run_spec_row("figure5", "go", scale=SCALE, profile=scalar_prof)
        run_spec_row(
            "figure5", "go", scale=SCALE, profile=batched_prof, batch=True
        )
        assert set(batched_prof.cells) == set(scalar_prof.cells)
