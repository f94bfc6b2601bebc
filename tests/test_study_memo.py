"""The study-scoped cell memo: each distinct detailed cell simulates once
per ``run_study`` call — serial, batched or on the pool, whichever worker
draws it — with rows identical to unmemoized runs."""

import json
import multiprocessing
import os
import signal
import sys

import pytest

import repro.harness.parallel as parallel_mod
from repro.core import Processor
from repro.errors import SimulationHang, TransientError
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
#: cell, which always simulates: the ``Processor.run`` count of every
#: execution mode (serial, ``batch``, and ``jobs`` through the pool's
#: cells-first wave)
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


def _keys(spec_name):
    return {
        key
        for cell in get_spec(spec_name).cells
        if (key := memo_key(NAME, SCALE, cell, cell.machine.resolve())) is not None
    }


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

    @pytest.mark.parametrize(
        "knobs", [{"jobs": 2}, {"batch": True}, {"jobs": 2, "batch": True}]
    )
    def test_execution_modes_are_byte_identical(self, knobs):
        serial = _study()
        other = _study(**knobs)
        assert other["failures"] == []
        assert other["results"] == serial["results"]
        assert json.dumps(other["results"], sort_keys=True) == json.dumps(
            serial["results"], sort_keys=True
        )

    @pytest.mark.parametrize("resume_jobs", [1, 2])
    def test_checkpointed_and_resumed_rows_are_identical(self, tmp_path, resume_jobs):
        plain = _study()
        path = tmp_path / "study.json"
        fresh = _study(checkpoint_path=path)
        resumed = _study(checkpoint_path=path, jobs=resume_jobs)
        assert resumed["resumed"] == len(runnable_experiments())
        assert fresh["results"] == plain["results"]
        # Resumed rows are equal only as JSON: the checkpoint returns int
        # window keys (Figure 5) as strings and tuples (Figure 10) as lists.
        assert resumed["results"] == json.loads(json.dumps(plain["results"]))


@pytest.fixture
def run_log(monkeypatch, tmp_path):
    """Log every ``Processor.run`` to a file, here and in forked pool
    workers (which inherit the patch); ``run_log()`` returns the logged
    configs and starts a fresh log."""
    path = tmp_path / "runs.log"
    original = Processor.run

    def logged(self, *args, **kwargs):
        with path.open("a") as fh:
            fh.write(repr(self.config) + "\n")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Processor, "run", logged)

    def read() -> list[str]:
        lines = path.read_text().splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        return lines

    return read


def _reverse_wave1(monkeypatch) -> list[int]:
    """Dispatch the pool's first wave in reverse order; returns the task
    count of each wave as it is dispatched."""
    original = parallel_mod.map_resilient
    waves: list[int] = []

    def reversed_first(fn, tasks, jobs, *, on_result, **kwargs):
        waves.append(len(tasks))
        if len(waves) > 1:
            return original(fn, tasks, jobs, on_result=on_result, **kwargs)
        last = len(tasks) - 1
        return original(
            fn,
            tasks[::-1],
            jobs,
            on_result=lambda i, outcome: on_result(last - i, outcome),
            **kwargs,
        )[::-1]

    monkeypatch.setattr(parallel_mod, "map_resilient", reversed_first)
    return waves


BASE256 = repr(get_machine("BASE").core_config(window_size=256))

#: the real ``parallel._run_cell``, captured before the kill test
#: replaces it (forked workers call through the module-level slot)
_REAL_RUN_CELL = None


def _kill_wave1_base_cell(experiment, workload, *args):
    """Stand-in for ``parallel._run_cell`` that dies in the wave-1 task
    of the BASE@256 cell; row tasks (no ``machine``) run normally."""
    machine = args[5] if len(args) > 5 else None
    if machine is not None and machine.machine == "BASE":
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_RUN_CELL(experiment, workload, *args)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests rely on fork inheriting patched module state",
)


@fork_only
class TestPoolMemo:
    @pytest.mark.parametrize("mode", ["jobs2", "jobs3", "reversed"])
    def test_pool_runs_each_distinct_cell_once(self, monkeypatch, run_log, mode):
        serial = _study()
        assert len(run_log()) == DISTINCT_RUNS
        waves = _reverse_wave1(monkeypatch) if mode == "reversed" else None
        pooled = _study(jobs=3 if mode == "jobs3" else 2)
        assert len(run_log()) == DISTINCT_RUNS
        assert pooled["failures"] == []
        assert pooled["results"] == serial["results"]
        assert pooled["wave1_cells"] == DISTINCT_RUNS - 1  # all but TFR
        if waves is not None:
            # Wave 1 also carries the keyless rows (Table 1, Figure 3,
            # Figure 10's TFR-only row); wave 2 the ten that read the memo.
            assert waves == [DISTINCT_RUNS - 1 + 3, 13 - 3]

    @pytest.mark.parametrize("error", [SimulationHang, TransientError])
    def test_failed_wave1_cell_is_not_memoized(self, monkeypatch, run_log, error):
        original = Processor.run  # the logging wrapper

        def failing(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            if repr(self.config) == BASE256:
                raise error("injected")
            return result

        monkeypatch.setattr(Processor, "run", failing)
        experiments = ["table4", "figure13"]
        serial = _study(experiments=experiments)
        serial_runs = run_log().count(BASE256)
        pooled = _study(experiments=experiments, jobs=2)
        pooled_runs = run_log().count(BASE256)
        rows = [serial["results"][e][NAME] for e in experiments]
        assert all(row["error_type"] == error.__name__ for row in rows)
        assert [pooled["results"][e][NAME] for e in experiments] == rows
        attempts = rows[0]["attempts"]
        assert attempts == (3 if error is TransientError else 1)
        assert serial_runs == 2 * attempts
        # Wave 1 ran it once, then each row simulated it again.
        assert pooled_runs == 1 + 2 * attempts
        assert pooled["wave1_cells"] == len(_keys("table4") | _keys("figure13")) - 1

    def test_sigkilled_wave1_cell_reruns_on_the_row_path(self, monkeypatch, run_log):
        experiments = ["table4", "figure13"]
        serial = _study(experiments=experiments)
        run_log()
        monkeypatch.setattr(
            sys.modules[__name__], "_REAL_RUN_CELL", parallel_mod._run_cell
        )
        monkeypatch.setattr(parallel_mod, "_run_cell", _kill_wave1_base_cell)
        pooled = _study(experiments=experiments, jobs=2)
        assert pooled["failures"] == []
        assert pooled["results"] == serial["results"]
        # Both rows that need the killed cell simulated it themselves.
        assert run_log().count(BASE256) == 2
