"""Detailed-core tests on small hand-written programs.

Correctness is enforced structurally: the processor co-simulates against
the golden functional trace at retirement and raises CosimulationError
on any divergence, so "it ran to completion" is itself a strong check.
"""

import pytest

from repro.core import (
    CompletionModel,
    CoreConfig,
    Preemption,
    ReconvPolicy,
    RepredictMode,
    simulate_core,
)
from repro.isa import assemble

DIAMOND_LOOP = """
    .entry main
main:
    li   r1, 30
    li   r2, 0
loop:
    andi r4, r1, 1
    beq  r4, r0, even
    add  r2, r2, r1
    jump join
even:
    sub  r2, r2, r1
join:
    addi r1, r1, -1
    bne  r1, r0, loop
    store r2, r0, 100
    call fn
    load r5, r0, 100
    halt
fn:
    addi r6, r0, 7
    jr   ra
"""

MEMORY_ALIAS = """
    .entry main
main:
    li   r1, 8
    li   r3, 17
loop:
    store r3, r1, 40       # store to 40+r1
    addi r4, r1, 0
    load r5, r4, 40        # immediately load it back
    add  r6, r6, r5
    addi r1, r1, -1
    bne  r1, r0, loop
    store r6, r0, 0
    halt
"""


def run_cfg(src, **kw):
    program = assemble(src)
    kw.setdefault("window_size", 64)
    kw.setdefault("max_cycles", 500_000)
    return simulate_core(program, CoreConfig(**kw))


class TestBaseMachine:
    def test_runs_to_completion(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.NONE)
        assert stats.retired > 0
        assert stats.ipc > 0.5

    def test_recoveries_are_full_squashes(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.NONE)
        assert stats.recoveries == stats.full_squashes
        assert stats.reconverged_recoveries == 0

    def test_store_load_forwarding_correct(self):
        stats = run_cfg(MEMORY_ALIAS, reconv_policy=ReconvPolicy.NONE)
        assert stats.retired > 0


class TestCIMachine:
    def test_ci_beats_base_on_diamond_loop(self):
        base = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.NONE)
        ci = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, window_size=32)
        base32 = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.NONE, window_size=32)
        assert ci.ipc > base32.ipc

    def test_selective_squash_statistics(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        assert stats.reconverged_recoveries > 0
        assert stats.removed_cd_instructions > 0
        assert stats.inserted_cd_instructions > 0

    def test_instant_redispatch_not_slower(self):
        ci = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        cii = run_cfg(
            DIAMOND_LOOP,
            reconv_policy=ReconvPolicy.POSTDOM,
            instant_redispatch=True,
        )
        assert cii.ipc >= ci.ipc * 0.95

    def test_work_saved_accounting(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        fractions = stats.table3_fractions()
        assert 0.0 <= fractions["fetch_saved"] <= 1.0
        assert fractions["work_saved"] <= fractions["fetch_saved"]

    @pytest.mark.parametrize("window", [16, 32, 64, 128])
    def test_all_window_sizes_complete(self, window):
        stats = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, window_size=window
        )
        assert stats.retired > 0


class TestConfigurationKnobs:
    @pytest.mark.parametrize("model", list(CompletionModel))
    def test_completion_models(self, model):
        stats = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, completion_model=model
        )
        assert stats.retired > 0

    @pytest.mark.parametrize("model", list(CompletionModel))
    def test_hfm_variants(self, model):
        stats = run_cfg(
            DIAMOND_LOOP,
            reconv_policy=ReconvPolicy.POSTDOM,
            completion_model=model,
            hide_false_mispredictions=True,
        )
        assert stats.retired > 0

    @pytest.mark.parametrize("mode", list(RepredictMode))
    def test_repredict_modes(self, mode):
        stats = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, repredict_mode=mode
        )
        assert stats.retired > 0

    @pytest.mark.parametrize("preemption", list(Preemption))
    def test_preemption_modes(self, preemption):
        stats = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, preemption=preemption
        )
        assert stats.retired > 0

    @pytest.mark.parametrize("segment", [1, 4, 16])
    def test_segment_sizes(self, segment):
        stats = run_cfg(
            DIAMOND_LOOP,
            reconv_policy=ReconvPolicy.POSTDOM,
            window_size=64,
            segment_size=segment,
        )
        assert stats.retired > 0

    def test_segmentation_does_not_beat_instruction_granularity(self):
        fine = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, segment_size=1
        )
        coarse = run_cfg(
            DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM, segment_size=16
        )
        assert coarse.ipc <= fine.ipc * 1.05

    @pytest.mark.parametrize(
        "policy",
        [
            ReconvPolicy.RETURN,
            ReconvPolicy.LOOP,
            ReconvPolicy.LTB,
            ReconvPolicy.RETURN_LOOP_LTB,
        ],
    )
    def test_heuristic_policies(self, policy):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=policy)
        assert stats.retired > 0

    def test_oracle_global_history(self):
        stats = run_cfg(
            DIAMOND_LOOP,
            reconv_policy=ReconvPolicy.POSTDOM,
            oracle_global_history=True,
        )
        assert stats.retired > 0


class TestStatsIntegrity:
    def test_issue_count_at_least_retired(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        assert stats.issues_total >= stats.retired

    def test_branch_events_counted(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        assert stats.branch_events > 0

    def test_true_plus_false_equals_recoveries(self):
        stats = run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)
        assert (
            stats.true_mispredictions + stats.false_mispredictions
            == stats.recoveries
        )


class TestStageCycleCounters:
    """The per-stage active-cycle counters the ledger's stage metrics
    read: bounded by total cycles and consistent with the run."""

    STAGES = ("fetch", "dispatch", "issue", "complete", "recover", "retire")

    @pytest.fixture(scope="class")
    def stats(self):
        return run_cfg(DIAMOND_LOOP, reconv_policy=ReconvPolicy.POSTDOM)

    def test_stage_counters_present_and_bounded(self, stats):
        counters = stats.stage_cycle_counters()
        assert set(counters) == {"cycles", *self.STAGES}
        assert counters["cycles"] == stats.cycles > 0
        for stage in self.STAGES:
            assert 0 <= counters[stage] <= stats.cycles, stage

    def test_stage_counters_reflect_activity(self, stats):
        # The run fetched, issued, completed and retired instructions,
        # and (with this branchy loop) serviced at least one recovery.
        counters = stats.stage_cycle_counters()
        for stage in ("fetch", "dispatch", "issue", "complete", "retire"):
            assert counters[stage] > 0, stage
        assert stats.recoveries == 0 or counters["recover"] > 0


class TestStatsZeroDenominators:
    """Every derived ratio must report 0.0 on an empty/degraded run
    instead of raising ZeroDivisionError mid-study."""

    RATIO_PROPERTIES = (
        "ipc",
        "issues_per_retired",
        "reconverge_fraction",
        "avg_removed",
        "avg_inserted",
        "avg_ci_preserved",
        "avg_ci_rename_repairs",
        "avg_restart_cycles",
        "branch_misprediction_rate",
        "false_misprediction_fraction",
        "repredict_accuracy",
    )

    def test_all_ratios_survive_empty_stats(self):
        from repro.core import CoreStats

        empty = CoreStats()
        for name in self.RATIO_PROPERTIES:
            assert getattr(empty, name) == 0.0, name

    def test_table3_fractions_survive_empty_stats(self):
        from repro.core import CoreStats

        fractions = CoreStats().table3_fractions()
        assert all(value == 0.0 for value in fractions.values())

    def test_ratios_still_divide_when_populated(self):
        from repro.core import CoreStats

        stats = CoreStats(cycles=4, retired=8, recoveries=4,
                          reconverged_recoveries=2, removed_cd_instructions=6)
        assert stats.ipc == 2.0
        assert stats.reconverge_fraction == 0.5
        assert stats.avg_removed == 3.0

    def test_figure6_survives_zero_base_ipc(self):
        from repro.harness import derive

        figure5 = {"go": {"BASE": {128: 0.0}, "CI": {128: 1.5}, "CI-I": {128: 1.6}}}
        assert derive("figure6", figure5) == {"go": {128: 0.0}}
