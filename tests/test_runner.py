"""Fault-isolated cell runner: retry, timeout, degradation, resume."""

import json
from types import SimpleNamespace

import pytest

import repro.harness.experiments as experiments_mod
from repro.errors import CellTimeout, CheckpointError, ConfigError
from repro.harness import run_study
from repro.harness.runner import (
    Cell,
    CellRunner,
    CheckpointStore,
    call_with_timeout,
    config_hash,
)
from repro.harness.spec import CellRow


def make_runner(**kwargs):
    sleeps = []
    runner = CellRunner(**kwargs, sleep=sleeps.append)
    return runner, sleeps


@pytest.fixture
def rows(monkeypatch):
    """Stub the study's row engine: ``rows.calls`` logs every
    (experiment, workload) row it runs, and workloads in ``rows.fail``
    raise a deterministic error."""

    stub = SimpleNamespace(calls=[], fail=set())

    def run_spec_row(experiment, workload, scale=None, memo=None):
        stub.calls.append((experiment, workload))
        if workload in stub.fail:
            raise ValueError(f"{workload} is broken")
        return CellRow(experiment, workload, {"benchmark": workload})

    monkeypatch.setattr(experiments_mod, "run_spec_row", run_spec_row)
    return stub


CELL = Cell(experiment="table1", workload="go", config_hash="abc123", scale=0.1)


class TestConfigHash:
    def test_stable_across_equal_dicts(self):
        a = config_hash({"window": 256, "policy": "postdom"})
        b = config_hash({"policy": "postdom", "window": 256})
        assert a == b

    def test_distinguishes_different_configs(self):
        from repro.core import CoreConfig

        assert config_hash(CoreConfig()) != config_hash(CoreConfig(window_size=128))

    def test_handles_enums_and_dataclasses(self):
        from repro.core import CoreConfig, ReconvPolicy

        h = config_hash({"cfg": CoreConfig(), "policy": ReconvPolicy.POSTDOM})
        assert isinstance(h, str) and len(h) == 12


class TestCanonicalCollisions:
    """Type-tagged canonicalization: distinct configs must hash apart."""

    def test_int_and_str_dict_keys_do_not_collide(self):
        assert config_hash({1: "x"}) != config_hash({"1": "x"})

    def test_enum_does_not_collide_with_its_rendered_name(self):
        from repro.core import ReconvPolicy

        assert config_hash(ReconvPolicy.POSTDOM) != config_hash(
            "ReconvPolicy.POSTDOM"
        )

    def test_dataclass_does_not_collide_with_equivalent_tuple(self):
        import dataclasses

        @dataclasses.dataclass
        class Knob:
            a: int = 1

        handwritten = ("dataclass", "Knob", (("a", 1),))
        assert config_hash(Knob()) != config_hash(handwritten)

    def test_set_does_not_collide_with_tuple_of_same_elements(self):
        assert config_hash({1, 2}) != config_hash((1, 2))

    def test_mixed_type_sets_hash_deterministically(self):
        assert config_hash({1, "1", 2.5}) == config_hash({2.5, 1, "1"})

    def test_mixed_type_dict_keys_hash_deterministically(self):
        assert config_hash({1: "a", "1": "b"}) == config_hash({"1": "b", 1: "a"})


class TestRetry:
    def test_transient_failure_retries_then_succeeds(self):
        runner, sleeps = make_runner(max_attempts=3)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise CellTimeout("blip")
            return {"ipc": 1.5}

        result = runner.run_cell(CELL, flaky)
        assert result.ok and result.value == {"ipc": 1.5}
        assert result.attempts == 3 and len(calls) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_permanent_failure_degrades_without_retry(self):
        runner, sleeps = make_runner(max_attempts=3)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bad knob")

        result = runner.run_cell(CELL, broken)
        assert not result.ok and len(calls) == 1  # deterministic: one shot
        assert result.error_type == "ValueError" and "bad knob" in result.error
        assert result.as_row() == {
            "error": "bad knob", "error_type": "ValueError", "attempts": 1,
        }
        assert sleeps == []

    def test_transient_failure_exhausts_attempts_then_degrades(self):
        runner, _ = make_runner(max_attempts=2)

        def always_flaky():
            raise CellTimeout("still flaky")

        result = runner.run_cell(CELL, always_flaky)
        assert not result.ok
        assert result.error_type == "CellTimeout" and result.attempts == 2


class TestTimeout:
    def test_hung_cell_becomes_cell_timeout(self):
        def hang():
            while True:
                pass

        with pytest.raises(CellTimeout, match="wall-clock budget"):
            call_with_timeout(hang, 0.2)

    def test_timeout_is_retryable_then_degrades(self):
        runner, _ = make_runner(max_attempts=2, timeout_seconds=0.1)

        def hang():
            while True:
                pass

        result = runner.run_cell(CELL, hang)
        assert not result.ok
        assert result.error_type == "CellTimeout" and result.attempts == 2

    def test_no_timeout_means_plain_call(self):
        assert call_with_timeout(lambda: 42, None) == 42

    def _run_in_thread(self, fn):
        """Run fn on a worker thread, returning ('ok', value) or ('err', exc)."""
        import threading

        out = []

        def target():
            try:
                out.append(("ok", fn()))
            except BaseException as exc:
                out.append(("err", exc))

        t = threading.Thread(target=target)
        t.start()
        t.join(10)
        assert out, "worker thread did not finish"
        return out[0]

    def test_off_main_thread_timeout_is_enforced_not_a_crash(self):
        # Before the deadline fallback this raised ValueError from
        # signal.signal (or silently skipped the guard).
        def hang():
            while True:
                pass

        status, payload = self._run_in_thread(
            lambda: call_with_timeout(hang, 0.2)
        )
        assert status == "err" and isinstance(payload, CellTimeout)

    def test_off_main_thread_value_and_errors_propagate(self):
        status, payload = self._run_in_thread(
            lambda: call_with_timeout(lambda: 42, 5.0)
        )
        assert (status, payload) == ("ok", 42)

        def boom():
            raise ValueError("bad knob")

        status, payload = self._run_in_thread(
            lambda: call_with_timeout(boom, 5.0)
        )
        assert status == "err" and isinstance(payload, ValueError)

    def test_main_thread_value_error_is_not_swallowed(self):
        # The SIGALRM setup failure marker must not eat fn's ValueError.
        def boom():
            raise ValueError("from the cell itself")

        with pytest.raises(ValueError, match="from the cell itself"):
            call_with_timeout(boom, 5.0)


class TestDeadline:
    def test_unbounded_deadline_never_expires(self):
        from repro.harness.runner import Deadline

        assert not Deadline.after(None).expired()

    def test_expired_deadline_raises_cell_timeout(self):
        from repro.harness.runner import Deadline

        d = Deadline.after(0.001)
        import time

        time.sleep(0.01)
        assert d.expired()


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path, rows):
        # First run: two cells complete, then the study "dies".
        path = tmp_path / "ckpt.json"
        first = run_study(["table1"], scale=0.1, names=("go", "gcc"),
                          checkpoint_path=path)
        assert rows.calls == [("table1", "go"), ("table1", "gcc")]

        # Second run over a larger grid: finished cells are served from
        # the checkpoint without re-running their rows.
        rows.calls.clear()
        second = run_study(["table1"], scale=0.1, names=("go", "gcc", "compress"),
                           checkpoint_path=path)
        assert rows.calls == [("table1", "compress")]
        assert second["resumed"] == 2 and second["failures"] == []
        for name in ("go", "gcc"):
            assert second["results"]["table1"][name] == first["results"]["table1"][name]

    def test_failed_cells_are_not_checkpointed(self, tmp_path, rows):
        path = tmp_path / "ckpt.json"
        rows.fail.add("go")
        first = run_study(["table1"], scale=0.1, names=("go",), checkpoint_path=path)
        assert first["results"]["table1"]["go"]["error_type"] == "ValueError"

        rows.fail.clear()
        rows.calls.clear()
        retry = run_study(["table1"], scale=0.1, names=("go",), checkpoint_path=path)
        assert rows.calls == [("table1", "go")]  # actually re-ran
        assert retry["resumed"] == 0 and retry["failures"] == []

    def test_different_config_hash_is_a_different_cell(self, tmp_path, rows):
        # A checkpointed row under another config hash is not this study's.
        path = tmp_path / "ckpt.json"
        stale = Cell("figure5", "go", config_hash({"experiment": "other"}), 0.1)
        store = CheckpointStore(path)
        store.record(stale.key, CellRow("figure5", "go", {"stale": True}).to_payload())
        other = run_study(["figure5"], scale=0.1, names=("go",), checkpoint_path=path)
        assert other["resumed"] == 0 and rows.calls == [("figure5", "go")]
        assert other["results"]["figure5"]["go"] == {"benchmark": "go"}

    def test_corrupt_checkpoint_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore(path)

    def test_wrong_version_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "results": {}}))
        with pytest.raises(CheckpointError, match="unexpected layout"):
            CheckpointStore(path)

    def test_non_serialisable_value_fails_at_record_time(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        with pytest.raises(CheckpointError, match="non-JSON-serialisable"):
            store.record("k", {"bad": object()})


class TestRunStudy:
    def test_failed_cell_does_not_stop_the_study(self, rows):
        rows.fail.add("go")
        out = run_study(["table1"], scale=0.1, names=("go", "gcc"))
        assert out["results"]["table1"]["go"]["error_type"] == "ValueError"
        assert out["results"]["table1"]["gcc"] == {"benchmark": "gcc"}
        assert [f.key.split("/")[1] for f in out["failures"]] == ["go"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_timeout_rejected_before_any_cell_runs(self, rows, jobs):
        with pytest.raises(ConfigError, match="timeout_seconds"):
            run_study(["table1"], scale=0.1, names=("go",), jobs=jobs,
                      timeout_seconds=-1)
        assert rows.calls == []

    def test_study_degrades_and_resumes(self, tmp_path):
        path = tmp_path / "study.json"
        first = run_study(
            experiments=["table1"], scale=0.02, names=("go",),
            checkpoint_path=path,
        )
        row = first["results"]["table1"]["go"]
        assert first["failures"] == [] and first["resumed"] == 0
        assert "error" not in row

        second = run_study(
            experiments=["table1"], scale=0.02, names=("go",),
            checkpoint_path=path,
        )
        assert second["resumed"] == 1
        assert second["results"]["table1"]["go"] == row

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="figure99"):
            run_study(experiments=["figure99"], scale=0.02, names=("go",))
