"""Functional simulator tests: golden traces, forks, wrong paths."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.functional import (
    ArchState,
    ExecutionLimitExceeded,
    Memory,
    OverlayMemory,
    TraceEntry,
    run,
    step,
    trace_iter,
    wrong_path,
)
from repro.isa import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    COND_BRANCH_OPS,
    CONTROL_KERNELS,
    NUM_REGS,
    VALUE_KERNELS,
    Instruction,
    Op,
    Program,
    assemble,
    effective_addr,
)

COUNTDOWN = """
    .entry main
main:
    li   r1, 5
    li   r2, 0
loop:
    add  r2, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    store r2, r0, 10
    halt
"""


class TestMemory:
    def test_uninitialised_reads_zero(self):
        assert Memory().read(1234) == 0

    def test_write_read(self):
        mem = Memory()
        mem.write(5, 42)
        assert mem.read(5) == 42

    def test_overlay_isolates_writes(self):
        base = Memory({1: 10})
        overlay = OverlayMemory(base)
        overlay.write(1, 99)
        overlay.write(2, 7)
        assert overlay.read(1) == 99
        assert base.read(1) == 10
        assert base.read(2) == 0
        assert overlay.written_addrs == {1, 2}


class TestRun:
    def test_countdown_sums(self):
        program = assemble(COUNTDOWN)
        trace = run(program)
        stores = [e for e in trace if e.instr.is_store]
        assert stores[-1].store_value == 15  # 5+4+3+2+1

    def test_trace_is_sequential(self):
        program = assemble(COUNTDOWN)
        trace = run(program)
        for i, entry in enumerate(trace):
            assert entry.seq == i
        for prev, cur in zip(trace, trace[1:]):
            assert prev.next_pc == cur.pc

    def test_halts_at_halt(self):
        program = assemble(COUNTDOWN)
        trace = run(program)
        assert trace[-1].instr.op.name == "HALT"

    def test_limit_enforced(self):
        program = assemble("spin: jump spin\nhalt")
        with pytest.raises(ExecutionLimitExceeded):
            run(program, max_steps=100)

    def test_data_section_initialises_memory(self):
        program = assemble(
            """
            .data 50 7
            load r1, r0, 50
            store r1, r0, 51
            halt
            """
        )
        trace = run(program)
        assert trace[0].value == 7
        assert trace[1].store_value == 7

    def test_deterministic(self):
        program = assemble(COUNTDOWN)
        t1 = [(e.pc, e.value) for e in run(program)]
        t2 = [(e.pc, e.value) for e in run(program)]
        assert t1 == t2


class TestWrongPath:
    def test_fork_does_not_touch_parent(self):
        program = assemble(COUNTDOWN)
        state = ArchState(pc=program.entry)
        state.write_reg(1, 3)
        child = state.fork(0)
        child.write_reg(1, 99)
        child.mem.write(10, 5)
        assert state.read_reg(1) == 3
        assert state.mem.read(10) == 0

    def test_wrong_path_stops_at_reconvergence(self):
        program = assemble(
            """
            beq r1, r0, other
            addi r2, r0, 1
            jump join
        other:
            addi r2, r0, 2
        join:
            halt
            """
        )
        state = ArchState(pc=0)
        entries, reached = wrong_path(state, program, 1, frozenset({4}), cap=50)
        assert reached
        assert [e.pc for e in entries] == [1, 2]

    def test_wrong_path_cap(self):
        program = assemble(
            """
        spin:
            addi r1, r1, 1
            jump spin
            halt
            """
        )
        state = ArchState(pc=0)
        entries, reached = wrong_path(state, program, 0, frozenset({99}), cap=10)
        assert len(entries) == 10
        assert not reached

    def test_wrong_path_records_speculative_stores(self):
        program = assemble(
            """
            store r1, r0, 20
            halt
            """
        )
        state = ArchState(pc=0)
        state.write_reg(1, 5)
        entries, _ = wrong_path(state, program, 0, frozenset(), cap=5)
        assert entries[0].addr == 20
        assert state.mem.read(20) == 0  # parent untouched


class TestTraceIter:
    def test_yields_state_after_each_step(self):
        program = assemble(COUNTDOWN)
        for entry, state in trace_iter(program):
            if entry.instr.dest is not None:
                assert state.read_reg(entry.instr.dest) == entry.value


def reference_step(state: ArchState, program: Program, seq: int = 0) -> TraceEntry:
    """Reference step: dispatches on the ISA's op-class sets, not on the
    decoded slots ``step`` reads, and applies results through the state's
    register accessors."""
    pc = state.pc
    instr = program.fetch(pc)
    if instr is None:
        state.halted = True
        return TraceEntry(seq, pc, Instruction(Op.HALT), False, pc + 1, None, None, None)
    op = instr.op
    a = state.read_reg(instr.rs1)
    b = state.read_reg(instr.rs2)
    taken, next_pc, addr, value, store_value = False, pc + 1, None, None, None
    if op is Op.LOAD:
        addr = effective_addr(instr, a)
        value = state.mem.read(addr)
        state.write_reg(instr.rd, value)
    elif op is Op.STORE:
        addr = effective_addr(instr, a)
        store_value = b
        state.mem.write(addr, b)
    elif op in COND_BRANCH_OPS or op in (Op.JUMP, Op.JR):
        taken, next_pc, _ = CONTROL_KERNELS[op.value](instr, pc, a, b)
    elif op is Op.CALL:
        taken, next_pc, value = CONTROL_KERNELS[op.value](instr, pc, a, b)
        state.write_reg(instr.rd, value)
    elif op in ALU_RR_OPS or op in ALU_RI_OPS:
        value = VALUE_KERNELS[op.value](instr, a, b)
        state.write_reg(instr.rd, value)
    elif op is Op.HALT:
        state.halted = True
    else:
        assert op is Op.NOP, op
    state.pc = next_pc
    return TraceEntry(seq, pc, instr, taken, next_pc, addr, value, store_value)


_word = st.integers(-(1 << 63), (1 << 63) - 1)
# r0 (reads as zero, writes discarded), a few ordinary registers and the
# link register, so sources and destinations often collide
_REGS = (0, 1, 2, 3, NUM_REGS - 1)
_reg = st.sampled_from(_REGS)


class TestStepMatchesReference:
    @given(
        op=st.sampled_from(list(Op)),
        rd=_reg,
        rs1=_reg,
        rs2=_reg,
        imm=st.one_of(st.integers(-8, 8), _word),
        target=st.integers(0, 7),
        # distinct values in the registers the instruction can name
        # (r0's slot included), so an operand read from the wrong
        # register (a store's base for its data, say) shows
        values=st.lists(
            st.one_of(st.integers(-8, 8), _word),
            min_size=len(_REGS),
            max_size=len(_REGS),
            unique=True,
        ),
        mem=st.dictionaries(st.integers(-8, 8), _word, max_size=4),
        pc=st.integers(-1, 3),
        overlay=st.booleans(),
    )
    @settings(max_examples=300)
    def test_one_step(self, op, rd, rs1, rs2, imm, target, values, mem, pc, overlay):
        """Every opcode, r0 reads and writes, HALT, and fetch outside the
        program (``pc`` of -1 or 3) step alike."""
        regs = [0] * NUM_REGS
        for reg, value in zip(_REGS, values):
            regs[reg] = value
        instr = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm, target=target)
        program = Program([instr] * 3)

        def fresh():
            state = ArchState(Memory(mem), pc=pc, regs=regs)
            return state.fork(pc) if overlay else state

        got_state, want_state = fresh(), fresh()
        got = step(got_state, program, seq=7)
        want = reference_step(want_state, program, seq=7)
        assert got == want
        assert got_state.regs == want_state.regs
        assert got_state.mem.snapshot() == want_state.mem.snapshot()
        assert (got_state.pc, got_state.halted) == (
            want_state.pc, want_state.halted
        )
