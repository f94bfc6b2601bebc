"""Error taxonomy, config validation and diagnostics snapshots."""

import pytest

from repro.core import (
    CoreConfig,
    CosimulationError,
    GoldenTrace,
    MachineSnapshot,
    Processor,
    ReconvPolicy,
    SimulationHang,
)
from repro.errors import (
    CellTimeout,
    CheckpointError,
    ConfigError,
    ExecutionLimitExceeded,
    HarnessError,
    ReproError,
    WorkloadError,
)
from repro.isa import AssemblerError, assemble
from repro.workloads import build_workload


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (
            ConfigError,
            WorkloadError,
            ExecutionLimitExceeded,
            SimulationHang,
            CosimulationError,
            HarnessError,
            CellTimeout,
            CheckpointError,
                    AssemblerError,
        ):
            assert issubclass(exc, ReproError)

    def test_backward_compatible_bases(self):
        # Pre-existing call sites catch RuntimeError / ValueError.
        assert issubclass(ReproError, RuntimeError)
        assert issubclass(ConfigError, ValueError)
        assert issubclass(WorkloadError, ValueError)
        assert issubclass(AssemblerError, ValueError)

    def test_simulation_hang_carries_kind_and_snapshot(self):
        snap = MachineSnapshot(
            cycle=7, fetch_pc=3, rob_occupancy=2, window_size=256,
            active_contexts=1, context_phases=("restart",), retired=5,
            golden_length=100, head_pc=9, head_status="incomplete inflight",
            incomplete_branches=1,
        )
        err = SimulationHang("stuck", snapshot=snap, kind="livelock")
        assert err.kind == "livelock"
        assert err.snapshot is snap
        text = str(err)
        assert "cycle=7" in text and "rob=2/256" in text
        assert "restart" in text and "head=pc 9" in text
        assert snap.last_retired_seq == 4

    def test_snapshot_reports_last_retired_pc_and_head_age(self):
        snap = MachineSnapshot(
            cycle=50_000, fetch_pc=12, rob_occupancy=64, window_size=256,
            active_contexts=1, context_phases=("normal",), retired=900,
            golden_length=5_000, head_pc=41, head_status="incomplete",
            incomplete_branches=2, last_retired_pc=40, oldest_rob_age=49_000,
        )
        text = snap.describe()
        assert "last pc 40" in text
        assert "head_age=49000" in text

    def test_snapshot_hides_age_and_pc_when_unknown(self):
        # Nothing retired yet + empty ROB: no misleading placeholders.
        snap = MachineSnapshot(
            cycle=3, fetch_pc=0, rob_occupancy=0, window_size=256,
            active_contexts=0, context_phases=(), retired=0,
            golden_length=100, head_pc=None, head_status="",
            incomplete_branches=0,
        )
        text = snap.describe()
        assert "last pc none" in text
        assert "head_age" not in text
        assert "head=empty" in text

    def test_processor_snapshot_populates_triage_fields(self):
        from repro.cfg import ReconvergenceTable
        from repro.core import CoreConfig, GoldenTrace, Processor
        from repro.workloads import build_workload

        program = build_workload("compress", 0.05).program
        proc = Processor(
            program, CoreConfig(window_size=64),
            GoldenTrace(program), ReconvergenceTable(program),
        )
        proc.run()
        snap = proc.snapshot()
        # After a completed run everything retired and the ROB drained.
        assert snap.retired == snap.golden_length
        assert snap.last_retired_pc is not None
        assert snap.oldest_rob_age is None


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert CoreConfig().validate() is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"window_size": -4},
            {"segment_size": 0},
            {"window_size": 256, "segment_size": 7},  # not a divisor
            {"reconv_policy": "postdom"},  # string, not the enum
            {"completion_model": "spec"},
            {"repredict_mode": "CI"},
            {"preemption": "simple"},
            {"instant_redispatch": True, "reconv_policy": ReconvPolicy.NONE},
            {"max_cycles": 0},
            {"watchdog_cycles": 0},
            {"strict_commit": True, "reconv_policy": ReconvPolicy.RETURN_LOOP},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            CoreConfig(**kwargs).validate()

    def test_error_names_the_knob(self):
        with pytest.raises(ConfigError, match="segment_size"):
            CoreConfig(window_size=256, segment_size=6).validate()

    # One case per knob at the integer boundary: bools and
    # non-integers used to slip through and fail deep in the run (or,
    # for bools, run as 1).
    @pytest.mark.parametrize(
        "knob,value,match",
        [
            ("window_size", True, "window_size"),
            ("segment_size", 1.0, "segment_size"),
            ("max_cycles", True, "max_cycles"),
            ("watchdog_cycles", 5e4, "watchdog_cycles"),
            ("sanitize_stride", True, "sanitize_stride"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_rejects_non_integer_knob(self, knob, value, match):
        with pytest.raises(ConfigError, match=match):
            CoreConfig(**{knob: value}).validate()

    # One case per boolean knob: the core reads them by truthiness, so a
    # string such as "no" or "off" used to turn the knob on silently.
    @pytest.mark.parametrize(
        "knob,value",
        [
            ("hide_false_mispredictions", "no"),
            ("instant_redispatch", "no"),
            ("oracle_global_history", "no"),
            ("strict_commit", "no"),
            ("sanitize", "off"),
        ],
    )
    def test_rejects_non_bool_knob(self, knob, value):
        with pytest.raises(ConfigError, match=knob):
            CoreConfig(**{knob: value}).validate()

    def test_sanitize_accepts_none_and_bools(self):
        for value in (None, True, False):
            CoreConfig(sanitize=value).validate()

    def test_processor_rejects_bad_config_up_front(self):
        program = assemble("li r1, 1\nhalt")
        with pytest.raises(ConfigError):
            Processor(program, CoreConfig(window_size=0))


class TestWorkloadValidation:
    def test_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            build_workload("spice")

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf"), "big", None, True, 1e9])
    def test_bad_scale(self, scale):
        with pytest.raises(WorkloadError, match="scale"):
            build_workload("go", scale)

    def test_assembler_rejects_non_string_source(self):
        with pytest.raises(AssemblerError, match="string"):
            assemble(b"halt")


class TestGoldenTraceBudget:
    def test_infinite_loop_raises_not_truncates(self):
        # A program that never halts must raise ExecutionLimitExceeded —
        # a silently truncated golden trace would make co-simulation
        # report phantom divergences at the cut-off.
        program = assemble("spin:\n  addi r1, r1, 1\n  jump spin\n  halt")
        with pytest.raises(ExecutionLimitExceeded, match="golden trace"):
            GoldenTrace(program, max_steps=500)

    def test_budget_is_not_off_by_one(self):
        # Exactly max_steps dynamic instructions must succeed.
        program = assemble(
            """
            li   r1, 5
        loop:
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
            """
        )
        from repro.functional import run

        n = len(run(program))
        assert len(GoldenTrace(program, max_steps=n).entries) == n
        with pytest.raises(ExecutionLimitExceeded):
            GoldenTrace(program, max_steps=n - 1)
