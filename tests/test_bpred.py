"""Branch prediction structure tests."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.bpred import (
    CorrelatedTargetBuffer,
    FrontEnd,
    GsharePredictor,
    MispredictionStats,
    ReturnAddressStack,
    TFRCollector,
    TFRTable,
    coverage_at_true_fraction,
    coverage_curve,
)
from repro.bpred.evaluate import PredictionReport
from repro.bpred.gshare import COUNTER_INIT
from repro.functional import run
from repro.harness.spec import annotate, measure_prediction
from repro.isa import REG_RA, Instruction, Op, assemble
from repro.workloads import WORKLOAD_NAMES, build_workload


class TestGshare:
    def test_table_starts_weakly_taken(self):
        for bits in (1, 4, 16):
            predictor = GsharePredictor(index_bits=bits)
            assert isinstance(predictor.table, bytearray)
            assert len(predictor.table) == 1 << bits
            assert set(predictor.table) == {COUNTER_INIT}
        # every FrontEnd builds its own table: training one leaves the
        # other untouched
        a, b = GsharePredictor(index_bits=4), GsharePredictor(index_bits=4)
        a.update(3, 0, False)
        assert a.table[3] == COUNTER_INIT - 1
        assert b.table[3] == COUNTER_INIT

    def test_learns_always_taken(self):
        predictor = GsharePredictor(index_bits=8)
        for _ in range(4):
            predictor.update(100, 0, True)
        assert predictor.predict(100, 0)

    def test_learns_not_taken(self):
        predictor = GsharePredictor(index_bits=8)
        for _ in range(4):
            predictor.update(100, 0, False)
        assert not predictor.predict(100, 0)

    def test_history_separates_contexts(self):
        predictor = GsharePredictor(index_bits=8)
        for _ in range(4):
            predictor.update(100, 0b01, True)
            predictor.update(100, 0b10, False)
        assert predictor.predict(100, 0b01)
        assert not predictor.predict(100, 0b10)

    def test_counters_saturate(self):
        predictor = GsharePredictor(index_bits=4)
        for _ in range(100):
            predictor.update(1, 0, True)
        assert max(predictor.table) <= 3

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_history_push_keeps_width(self, outcomes):
        predictor = GsharePredictor(index_bits=6, history_bits=6)
        history = 0
        for taken in outcomes:
            history = predictor.history.push(history, taken)
            assert 0 <= history < (1 << 6)


class TestTargets:
    def test_ctb_round_trip(self):
        ctb = CorrelatedTargetBuffer(index_bits=8)
        assert ctb.predict(10, 3) is None
        ctb.update(10, 3, 77)
        assert ctb.predict(10, 3) == 77

    def test_ctb_history_correlation(self):
        ctb = CorrelatedTargetBuffer(index_bits=8)
        ctb.update(10, 1, 100)
        ctb.update(10, 2, 200)
        assert ctb.predict(10, 1) == 100
        assert ctb.predict(10, 2) == 200

    def test_ras_lifo(self):
        ras = ReturnAddressStack()
        ras.push(5)
        ras.push(9)
        assert ras.pop() == 9
        assert ras.pop() == 5
        assert ras.pop() is None

    def test_ras_snapshot_restore(self):
        ras = ReturnAddressStack()
        ras.push(1)
        snap = ras.snapshot()
        ras.push(2)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 1


class TestFrontEnd:
    def test_direct_jump_always_correct(self):
        fe = FrontEnd(index_bits=6)
        instr = Instruction(Op.JUMP, target=42)
        assert fe.predict(instr, 0, 0).next_pc == 42

    def test_call_pushes_ras(self):
        fe = FrontEnd(index_bits=6)
        fe.predict(Instruction(Op.CALL, rd=REG_RA, target=100), 7, 0)
        prediction = fe.predict(Instruction(Op.JR, rs1=REG_RA), 105, 0)
        assert prediction.next_pc == 8

    def test_cold_indirect_is_blind(self):
        fe = FrontEnd(index_bits=6)
        prediction = fe.predict(Instruction(Op.JR, rs1=5), 10, 0)
        assert prediction.blind

    def test_update_trains_indirect(self):
        fe = FrontEnd(index_bits=6)
        instr = Instruction(Op.JR, rs1=5)
        fe.update(instr, 10, 0, True, 500)
        assert fe.predict(instr, 10, 0).next_pc == 500


#: ``PredictionReport`` field values per kernel at scale 0.05, then the
#: number of mispredictions ``annotate`` spawns a wrong path for
PINNED_REPORTS = {
    "gcc": ((4333, 1398, 0, 62, 356, 0, 0), 356),
    "go": ((2513, 431, 0, 32, 144, 0, 0), 144),
    "compress": ((2142, 140, 0, 0, 23, 0, 0), 23),
    "jpeg": ((1139, 132, 0, 0, 17, 0, 0), 17),
    "vortex": ((910, 90, 0, 45, 1, 0, 0), 1),
}

#: an indirect jump alternating between two targets for 40 iterations:
#: the CTB starts cold, then learns per history, then sees both targets
#: under the saturated history
ALTERNATING_JR = """
    li   r1, 40
    li   r5, 7
    li   r6, 12
loop:
    sub  r5, r6, r5
    jr   r5
a:
    addi r2, r2, 1
    jump join
b:
    addi r2, r2, 2
join:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


class TestUpToDateFrontEnd:
    """Table 1 and the ideal trace share ``FrontEnd.predict_uptodate``;
    each keeps its own misprediction rule."""

    def test_predict_uptodate_trains_and_pushes_history(self):
        fe = FrontEnd(index_bits=6)
        branch = Instruction(Op.BNE, rs1=1, target=3)
        _, history = fe.predict_uptodate(branch, 9, 0, True, 3)
        assert history == fe.push_history(0, True)
        indirect = Instruction(Op.JR, rs1=5)
        first, same = fe.predict_uptodate(indirect, 10, history, True, 500)
        assert first.blind and same == history
        assert fe.predict(indirect, 10, history).next_pc == 500

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_counts_are_pinned(self, name):
        program = build_workload(name, 0.05).program
        fields, wrong_paths = PINNED_REPORTS[name]
        assert dataclasses.astuple(measure_prediction(run(program))) == fields
        assert annotate(program).misprediction_count == wrong_paths

    def test_blind_ctb_miss_counts_only_in_table1(self):
        program = assemble(ALTERNATING_JR)
        report = measure_prediction(run(program))
        assert report == PredictionReport(
            instructions=224,
            conditional_branches=40,
            indirect_jumps=40,
            conditional_mispredictions=1,
            indirect_mispredictions=31,
        )
        annotated = annotate(program)
        at_jr = [
            seq for seq in annotated.mispredictions
            if annotated.entries[seq].instr.is_indirect
        ]
        # 8 of Table 1's 31 indirect misses are blind: the ideal trace
        # spawns a wrong path for the other 23 only
        assert len(at_jr) == 23
        assert annotated.misprediction_count == 24


class TestTFR:
    def test_table_shifts_history(self):
        table = TFRTable(index_bits=4, tfr_bits=4)
        table.record(1, 0, True)
        table.record(1, 0, False)
        table.record(1, 0, True)
        assert table.pattern(1, 0) == 0b101

    def test_curve_ends_at_one_one(self):
        stats = MispredictionStats()
        for key, false in [(1, True), (1, False), (2, False), (3, True)]:
            stats.record(key, false)
        curve = coverage_curve(stats)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (1.0, 1.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=60
        )
    )
    def test_curve_is_monotone(self, events):
        stats = MispredictionStats()
        for key, false in events:
            stats.record(key, false)
        curve = coverage_curve(stats)
        for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_perfect_separation(self):
        """Keys that are purely false should be caught before any true."""
        stats = MispredictionStats()
        for _ in range(10):
            stats.record(1, True)   # key 1: always false mispredictions
            stats.record(2, False)  # key 2: always true
        curve = coverage_curve(stats)
        assert coverage_at_true_fraction(curve, 0.0) == 1.0

    def test_collector_schemes(self):
        for scheme in ("static", "dynamic_pc", "dynamic_xor"):
            collector = TFRCollector(scheme, index_bits=8)
            collector.record(10, 3, True)
            collector.record(10, 3, False)
            curve = collector.curve()
            assert curve[-1] == (1.0, 1.0)

    def test_collector_rejects_unknown_scheme(self):
        import pytest

        with pytest.raises(ValueError):
            TFRCollector("bogus")
