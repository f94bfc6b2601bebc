"""Parallel study scheduler: equivalence, resume, isolation, job knobs."""

import json
import multiprocessing
import os
import signal
import sys

import pytest

from repro.errors import ConfigError
from repro.harness import run_study
from repro.harness.parallel import map_resilient, outcome_result, resolve_jobs
from repro.harness.runner import CellResult

# Small but non-trivial grid: two experiments x two workloads.
EXPS = ["table1"]
NAMES = ("go", "compress")
SCALE = 0.02


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_is_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_auto_maps_to_cpu_count(self):
        assert resolve_jobs("auto") >= 1

    @pytest.mark.parametrize("bad", ["zero?", "-1", "0", "1.5"])
    def test_bad_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True])
    def test_bad_argument_rejected(self, bad):
        with pytest.raises(ConfigError, match="jobs"):
            resolve_jobs(bad)


class TestParallelEquivalence:
    def test_rows_byte_identical_to_serial(self):
        serial = run_study(experiments=EXPS, scale=SCALE, names=NAMES)
        parallel = run_study(experiments=EXPS, scale=SCALE, names=NAMES, jobs=2)
        assert parallel["jobs"] == 2
        assert parallel["failures"] == [] and serial["failures"] == []
        assert json.dumps(parallel["results"], sort_keys=True) == json.dumps(
            serial["results"], sort_keys=True
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="figure99"):
            run_study(experiments=["figure99"], scale=SCALE, names=NAMES, jobs=2)

    def test_bad_workload_degrades_to_error_row(self):
        out = run_study(
            experiments=EXPS, scale=SCALE, names=("go", "not-a-benchmark"), jobs=2
        )
        assert "error" not in out["results"]["table1"]["go"]
        bad = out["results"]["table1"]["not-a-benchmark"]
        assert bad["error_type"] == "WorkloadError"
        assert len(out["failures"]) == 1


class TestParallelResume:
    def test_killed_study_resumes_without_resimulating(self, tmp_path, monkeypatch):
        path = tmp_path / "study.json"
        # "Kill" a study half-way: only one workload's cells completed.
        first = run_study(
            experiments=EXPS, scale=SCALE, names=("go",), jobs=2,
            checkpoint_path=path,
        )
        assert first["resumed"] == 0 and not first["failures"]

        # Resume over the full grid: the finished cell must be served
        # from the checkpoint, the missing one dispatched.
        second = run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2,
            checkpoint_path=path,
        )
        assert second["resumed"] == 1 and not second["failures"]
        assert second["results"]["table1"]["go"] == first["results"]["table1"]["go"]

        # Fully-resumed study: no pool may even be constructed.
        import repro.harness.parallel as parallel_mod

        def no_pool(*args, **kwargs):
            raise AssertionError("a completed study must not dispatch workers")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        third = run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2,
            checkpoint_path=path,
        )
        assert third["resumed"] == len(EXPS) * len(NAMES)
        assert third["results"] == second["results"]

    def test_serial_checkpoint_is_resumable_in_parallel(self, tmp_path):
        path = tmp_path / "study.json"
        serial = run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, checkpoint_path=path
        )
        parallel = run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2,
            checkpoint_path=path,
        )
        assert parallel["resumed"] == len(EXPS) * len(NAMES)
        assert json.dumps(parallel["results"], sort_keys=True) == json.dumps(
            serial["results"], sort_keys=True
        )

    def test_run_study_dispatches_to_parallel_via_jobs(self, tmp_path):
        out = run_study(
            experiments=EXPS, scale=SCALE, names=("go",), jobs=2,
            checkpoint_path=tmp_path / "study.json",
        )
        assert out["jobs"] == 2 and not out["failures"]


def _echo(x):
    return x * 10


def _raise_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _sigkill_on_three(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


#: the real ``parallel._run_cell``, captured before the crash test
#: monkeypatches it away (workers call through this module-level slot).
_REAL_RUN_CELL = None


def _kill_run_cell(experiment, workload, *args):
    """Stand-in for ``parallel._run_cell`` that dies on one workload.

    Module-level so the pool can pickle it by reference; workers forked
    after the monkeypatch resolve it through this (inherited) module.
    """
    if workload == "compress":
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_RUN_CELL(experiment, workload, *args)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill tests rely on fork inheriting patched module state",
)


class TestMapResilient:
    def test_healthy_map_preserves_task_order(self):
        outcomes = map_resilient(_echo, [(i,) for i in range(6)], 2)
        assert outcomes == [("ok", i * 10) for i in range(6)]

    def test_worker_exception_is_an_error_outcome(self):
        outcomes = map_resilient(_raise_on_three, [(i,) for i in range(5)], 2)
        assert [tag for tag, _ in outcomes] == ["ok", "ok", "ok", "error", "ok"]
        tag, exc = outcomes[3]
        assert isinstance(exc, ValueError) and "three" in str(exc)

    def test_expired_deadline_skips_everything(self):
        from repro.harness.runner import Deadline

        expired = Deadline(expires_at=0.0)
        outcomes = map_resilient(_echo, [(i,) for i in range(4)], 2, deadline=expired)
        assert all(tag == "skipped" for tag, _ in outcomes)

    @fork_only
    def test_sigkilled_worker_crashes_only_its_window(self):
        tasks = [(i,) for i in range(10)]
        outcomes = map_resilient(_sigkill_on_three, tasks, 2)
        tags = [tag for tag, _ in outcomes]
        assert tags[3] == "crashed"
        assert "died abruptly" in outcomes[3][1]
        # The pool was rebuilt: everything outside the broken pool's
        # in-flight window (at most 2*jobs tasks) still completed.
        assert set(tags) <= {"ok", "crashed"}
        assert tags.count("crashed") <= 2 * 2
        assert all(
            payload == i * 10
            for i, (tag, payload) in enumerate(outcomes)
            if tag == "ok"
        )


@pytest.mark.parametrize(
    "outcome, status, error, error_type, attempts",
    [
        (("ok", CellResult(key="k", status="ok", value=7, attempts=2)),
         "ok", None, None, 2),
        (("error", ValueError("boom")), "error", "boom", "ValueError", 1),
        (("crashed", "worker died"), "error", "worker died", "WorkerCrash", 1),
        (("skipped", "budget spent"), "error", "budget spent", "BudgetExpired", 0),
    ],
    ids=["ok", "error", "crashed", "skipped"],
)
def test_outcome_result_rows(outcome, status, error, error_type, attempts):
    result = outcome_result("k", outcome)
    assert (result.key, result.status, result.error, result.error_type,
            result.attempts, result.resumed) == (
        "k", status, error, error_type, attempts, False)


class TestWorkerCrashRecovery:
    @fork_only
    def test_sigkilled_worker_becomes_structured_row_and_study_resumes(
        self, tmp_path, monkeypatch
    ):
        import repro.harness.parallel as parallel_mod

        path = tmp_path / "study.json"

        with monkeypatch.context() as patch:
            # Workers are forked after the patch, so they inherit it.
            patch.setattr(
                sys.modules[__name__], "_REAL_RUN_CELL", parallel_mod._run_cell
            )
            patch.setattr(parallel_mod, "_run_cell", _kill_run_cell)
            first = run_study(
                experiments=EXPS, scale=SCALE, names=NAMES, jobs=2,
                checkpoint_path=path,
            )

        # The study survived the kill: the murdered cell is a structured
        # error row, not a raised BrokenProcessPool.
        crashed = first["results"]["table1"]["compress"]
        assert crashed["error_type"] == "WorkerCrash"
        assert "died abruptly" in crashed["error"]
        assert any(f.error_type == "WorkerCrash" for f in first["failures"])

        # Resuming without the killer completes only the crashed cells;
        # checkpointed survivors are not re-executed.
        second = run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2,
            checkpoint_path=path,
        )
        assert not second["failures"]
        assert second["resumed"] == len(NAMES) - len(first["failures"])
        for name in NAMES:
            assert "error" not in second["results"]["table1"][name]


class TestSharedCacheDir:
    def test_study_populates_and_reuses_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2, cache_dir=cache_dir
        )
        entries = list(cache_dir.glob("*.pkl"))
        # one artifact bundle per workload, traced once by the parent
        assert len(entries) == len(NAMES)
        mtimes = {p: p.stat().st_mtime_ns for p in entries}

        # A second study over the same grid reuses the entries untouched.
        run_study(
            experiments=EXPS, scale=SCALE, names=NAMES, jobs=2, cache_dir=cache_dir
        )
        assert {p: p.stat().st_mtime_ns for p in entries} == mtimes
