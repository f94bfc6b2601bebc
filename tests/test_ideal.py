"""Idealized-study tests (paper Section 2)."""

import pytest

import repro.machines
from repro.errors import ConfigError, SimulationHang
from repro.fuzz.oracle import run_oracle
from repro.ideal import (
    IdealConfig,
    IdealModel,
    IdealScheduler,
    annotate,
    simulate,
)
from repro.isa import assemble
from repro.workloads import build_workload

DIAMOND_LOOP = """
    .entry main
main:
    li   r1, 40
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
    halt
"""


@pytest.fixture(scope="module")
def diamond_trace():
    return annotate(assemble(DIAMOND_LOOP))


@pytest.fixture(scope="module")
def go_trace():
    return annotate(build_workload("go", 0.05).program)


class TestAnnotation:
    def test_dependences_point_backwards(self, go_trace):
        for seq in range(len(go_trace)):
            for dep in (go_trace.dep1[seq], go_trace.dep2[seq], go_trace.depm[seq]):
                assert dep < seq

    def test_memory_producer_is_matching_store(self, go_trace):
        for seq, entry in enumerate(go_trace.entries):
            if entry.instr.is_load and go_trace.depm[seq] >= 0:
                store = go_trace.entries[go_trace.depm[seq]]
                assert store.instr.is_store
                assert store.addr == entry.addr

    def test_mispredictions_are_branches_or_indirect(self, go_trace):
        for seq in go_trace.mispredictions:
            instr = go_trace.entries[seq].instr
            assert instr.is_branch or instr.is_indirect

    def test_reconv_seq_matches_pc(self, go_trace):
        for mp in go_trace.mispredictions.values():
            if mp.reconv_seq is not None:
                assert go_trace.entries[mp.reconv_seq].pc == mp.reconv_pc
                assert mp.reconv_seq > mp.seq

    def test_wrong_paths_start_at_predicted_target(self, go_trace):
        for mp in go_trace.mispredictions.values():
            if mp.wrong_path:
                assert mp.wrong_path[0].entry.pc == mp.predicted_pc

    def test_false_regs_are_wrong_path_writes(self, go_trace):
        for mp in go_trace.mispredictions.values():
            written = {
                wp.entry.instr.dest
                for wp in mp.wrong_path
                if wp.entry.instr.dest is not None
            }
            assert mp.false_regs == frozenset(written)


class TestModels:
    def test_oracle_has_no_squashes(self, diamond_trace):
        result = simulate(diamond_trace, IdealModel.ORACLE, IdealConfig(window_size=64))
        assert result.full_squashes == 0
        assert result.fetched_wrong_path == 0

    def test_all_models_retire_everything(self, diamond_trace):
        n = len(diamond_trace)
        for model in IdealModel:
            result = simulate(diamond_trace, model, IdealConfig(window_size=64))
            assert result.retired == n, model

    def test_oracle_is_upper_bound(self, go_trace):
        oracle = simulate(go_trace, IdealModel.ORACLE, IdealConfig(window_size=128)).ipc
        for model in IdealModel:
            ipc = simulate(go_trace, model, IdealConfig(window_size=128)).ipc
            assert ipc <= oracle * 1.02, model

    def test_base_is_lower_bound_among_ci_models(self, go_trace):
        base = simulate(go_trace, IdealModel.BASE, IdealConfig(window_size=128)).ipc
        for model in (IdealModel.NWR_NFD, IdealModel.NWR_FD, IdealModel.WR_FD):
            assert simulate(go_trace, model, IdealConfig(window_size=128)).ipc >= base * 0.98

    def test_wasted_resources_hurt(self, go_trace):
        nwr = simulate(go_trace, IdealModel.NWR_NFD, IdealConfig(window_size=128)).ipc
        wr = simulate(go_trace, IdealModel.WR_NFD, IdealConfig(window_size=128)).ipc
        assert wr <= nwr * 1.02

    def test_false_dependences_hurt_compress(self):
        trace = annotate(build_workload("compress", 0.1).program)
        nfd = simulate(trace, IdealModel.NWR_NFD, IdealConfig(window_size=256)).ipc
        fd = simulate(trace, IdealModel.NWR_FD, IdealConfig(window_size=256)).ipc
        assert fd < nfd

    def test_base_fetches_wrong_path_instructions(self, go_trace):
        result = simulate(go_trace, IdealModel.BASE, IdealConfig(window_size=128))
        assert result.fetched_wrong_path > 0
        assert result.full_squashes > 0

    def test_nwr_models_fetch_no_wrong_path(self, go_trace):
        for model in (IdealModel.NWR_NFD, IdealModel.NWR_FD):
            result = simulate(go_trace, model, IdealConfig(window_size=128))
            # only full-squash fallbacks may stall, never fetch wrong paths
            assert result.fetched_wrong_path == 0

    def test_oracle_ipc_grows_with_window(self, go_trace):
        small = simulate(go_trace, IdealModel.ORACLE, IdealConfig(window_size=32)).ipc
        big = simulate(go_trace, IdealModel.ORACLE, IdealConfig(window_size=256)).ipc
        assert big >= small

    def test_width_bounds_ipc(self, diamond_trace):
        for model in IdealModel:
            result = simulate(diamond_trace, model, IdealConfig(window_size=64))
            assert result.ipc <= 16.0

    def test_deterministic(self, go_trace):
        a = simulate(go_trace, IdealModel.WR_FD, IdealConfig(window_size=128))
        b = simulate(go_trace, IdealModel.WR_FD, IdealConfig(window_size=128))
        assert a.cycles == b.cycles


class TestModelProperties:
    def test_model_flags(self):
        assert IdealModel.WR_FD.wastes_resources
        assert IdealModel.WR_FD.false_dependences
        assert not IdealModel.NWR_NFD.wastes_resources
        assert not IdealModel.WR_NFD.false_dependences
        assert IdealModel.BASE.wastes_resources
        assert not IdealModel.ORACLE.exploits_ci
        assert not IdealModel.BASE.exploits_ci


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,knob",
        [
            ({"window_size": 0}, "window_size"),
            ({"window_size": 64.5}, "window_size"),
        ],
        ids=["window-zero", "window-float"],
    )
    def test_rejects_bad_knob_naming_it(self, diamond_trace, kwargs, knob):
        with pytest.raises(ConfigError, match=knob):
            IdealConfig(**kwargs).validate()
        with pytest.raises(ConfigError, match=knob):
            IdealScheduler(diamond_trace, IdealModel.BASE, IdealConfig(**kwargs))

    def test_default_and_edge_configs_are_valid(self):
        config = IdealConfig()
        assert config.validate() is config
        IdealConfig(window_size=1).validate()


class TestCycleLimit:
    def test_overrun_raises_cycle_limit_hang(self, go_trace):
        scheduler = IdealScheduler(go_trace, IdealModel.BASE, IdealConfig())
        with pytest.raises(SimulationHang, match="exceeded 5 cycles") as info:
            scheduler.run(max_cycles=5)
        assert info.value.kind == "cycle-limit"

    def test_fuzz_oracle_classifies_ideal_overrun_as_hang(self, monkeypatch):
        def overrun(trace, model, config):
            return IdealScheduler(trace, model, config).run(max_cycles=5)

        monkeypatch.setattr(repro.machines, "simulate_ideal", overrun)
        report = run_oracle(assemble(DIAMOND_LOOP), machines=("ideal/base",))
        [divergence] = report.divergences
        assert divergence.kind == "hang"
        assert divergence.detail.startswith("cycle-limit:")
