"""Fault injection: prove the checkers catch every divergence class.

Each test corrupts live machine state with a seeded fault hook
(``faults.py``) and asserts the retirement co-simulation checker (or the
forward-progress watchdog) refuses to let the corruption retire.  Seeds
are pinned to values whose victims demonstrably reach retirement — a
fault whose victim gets squashed on the wrong path is legitimately
harmless.
"""

import pytest

from repro.cfg import ReconvergenceTable
from repro.core import (
    CoreConfig,
    CosimulationError,
    GoldenTrace,
    Processor,
    ReconvPolicy,
    SimulationHang,
)
from repro.workloads import build_workload

from faults import (
    dropped_wakeup,
    predictor_state,
    reconv_table,
    register_value,
    run_with_hooks,
)

SCALE = 0.05


@pytest.fixture(autouse=True)
def no_env_sanitizer(monkeypatch):
    # Every run here is plain unless a test adds the sanitizer itself.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


@pytest.fixture(scope="module")
def bundle():
    program = build_workload("go", SCALE).program
    golden = GoldenTrace(program)
    table = ReconvergenceTable(program)
    return program, golden, table


def baseline_config(**kwargs):
    # CoreConfig defaults are the paper's CI machine: POSTDOM
    # reconvergence + SPEC_C completion — the sweep that pinned the
    # seeds below ran exactly this machine.
    return CoreConfig(**kwargs)


class TestRegisterValueFault:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_check_catches_corrupted_register(self, bundle, seed):
        program, golden, table = bundle
        fault = register_value(seed=seed)
        with pytest.raises(CosimulationError) as excinfo:
            run_with_hooks(program, baseline_config(), golden, table, fault)
        assert fault.description
        assert excinfo.value.snapshot is not None

    def test_is_deterministic(self, bundle):
        program, golden, table = bundle
        messages = set()
        for _ in range(2):
            fault = register_value(seed=3)
            with pytest.raises(CosimulationError) as excinfo:
                run_with_hooks(program, baseline_config(), golden, table, fault)
            messages.add(str(excinfo.value))
        assert len(messages) == 1  # same seed, same victim, same diagnosis


class TestPredictorStateFault:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_control_check_catches_flipped_branch_path(self, bundle, seed):
        program, golden, table = bundle
        fault = predictor_state(seed=seed)
        with pytest.raises(CosimulationError):
            run_with_hooks(program, baseline_config(), golden, table, fault)
        assert fault.description


class TestReconvTableFault:
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_strict_commit_catches_mis_splice(self, bundle, seed):
        program, golden, _ = bundle
        # Fresh table per test: this fault corrupts it in place, and
        # the shared fixture table must stay pristine for other tests.
        table = ReconvergenceTable(program)
        # strict_commit: under exact post-dominator information, a
        # commit-time next-PC repair is by definition a reconvergence
        # bug, so the machine escalates instead of silently healing.
        fault = reconv_table(seed=seed)
        with pytest.raises(CosimulationError, match="next-PC"):
            run_with_hooks(program, baseline_config(strict_commit=True),
                           golden, table, fault)
        assert fault.description

    def test_requires_a_reconvergence_table(self, bundle):
        program, golden, _ = bundle
        from repro.errors import ReproError

        config = CoreConfig(reconv_policy=ReconvPolicy.NONE)
        with pytest.raises(ReproError, match="reconvergence table"):
            run_with_hooks(program, config, golden, None, reconv_table(seed=0))


class TestDroppedWakeupFault:
    @pytest.mark.parametrize("seed", [5, 6, 9])
    def test_stale_value_caught_by_value_check(self, bundle, seed):
        program, golden, table = bundle
        # Victim already issued once; dropping its re-execution wakeups
        # makes it retire the stale first-issue value.
        fault = dropped_wakeup(seed=seed, issued=True)
        with pytest.raises(CosimulationError):
            run_with_hooks(program, baseline_config(), golden, table, fault)
        assert fault.description and fault.dropped >= 1

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_never_issued_victim_trips_watchdog(self, bundle, seed):
        program, golden, table = bundle
        # Victim never issues: retirement wedges behind it and the
        # forward-progress watchdog must diagnose the livelock (rather
        # than burning the whole max_cycles budget).
        fault = dropped_wakeup(seed=seed, issued=False)
        config = baseline_config(watchdog_cycles=3000)
        with pytest.raises(SimulationHang) as excinfo:
            run_with_hooks(program, config, golden, table, fault)
        assert fault.description
        assert excinfo.value.kind == "livelock"
        assert "forward-progress watchdog" in str(excinfo.value)
        snap = excinfo.value.snapshot
        assert snap is not None and snap.rob_occupancy > 0


class TestCycleLimit:
    def test_tiny_budget_raises_cycle_limit_hang(self, bundle):
        program, golden, table = bundle
        config = baseline_config(max_cycles=50)
        proc = Processor(program, config, golden, table)
        with pytest.raises(SimulationHang) as excinfo:
            proc.run()
        assert excinfo.value.kind == "cycle-limit"
        assert "50-cycle budget" in str(excinfo.value)


class TestNoFalsePositives:
    def test_unarmed_machine_runs_clean(self, bundle):
        program, golden, table = bundle
        # The same machine+workload the faults run on must pass the
        # checkers when nothing is injected (watchdog included).
        config = baseline_config(strict_commit=True, watchdog_cycles=3000)
        stats = Processor(program, config, golden, table).run()
        assert stats.retired == len(golden.entries)
