"""Unit tests for the ISA: semantics, encoding, assembler."""

import pytest
from hypothesis import given, strategies as st

from repro.functional import ArchState, Memory, step
from repro.isa import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    COND_BRANCH_OPS,
    CONTROL_KERNELS,
    CONTROL_OPS,
    MEMORY_OPS,
    NUM_REGS,
    REG_RA,
    REG_ZERO,
    VALUE_KERNELS,
    AssemblerError,
    Instruction,
    Op,
    Program,
    assemble,
    disassemble,
    to_signed,
)

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestToSigned:
    def test_identity_in_range(self):
        assert to_signed(42) == 42
        assert to_signed(-42) == -42

    def test_wraps_overflow(self):
        assert to_signed(2**63) == -(2**63)
        assert to_signed(2**64) == 0
        assert to_signed(2**64 + 5) == 5

    @given(i64)
    def test_fixed_point(self, value):
        assert to_signed(value) == value

    @given(st.integers())
    def test_always_in_range(self, value):
        result = to_signed(value)
        assert -(2**63) <= result < 2**63


def value_of(instr: Instruction, a: int = 0, b: int = 0):
    """The register result of a value op through its kernel."""
    return VALUE_KERNELS[instr.opcode](instr, a, b)


def control_of(instr: Instruction, pc: int, a: int = 0, b: int = 0):
    """``(taken, next_pc, link value)`` of a control op through its kernel."""
    return CONTROL_KERNELS[instr.opcode](instr, pc, a, b)


def step_one(instr: Instruction, regs: dict[int, int], mem: dict[int, int]):
    """Run ``instr`` alone through the functional ``step`` at pc 0."""
    state = ArchState(Memory(mem), pc=0)
    for reg, value in regs.items():
        state.write_reg(reg, value)
    entry = step(state, Program([instr, Instruction(Op.HALT)]))
    return entry, state


class TestAluSemantics:
    @given(i64, i64)
    def test_add_matches_python(self, a, b):
        result = value_of(Instruction(Op.ADD, rd=1, rs1=2, rs2=3), a, b)
        assert result == to_signed(a + b)

    @given(i64, i64)
    def test_sub_matches_python(self, a, b):
        result = value_of(Instruction(Op.SUB, rd=1, rs1=2, rs2=3), a, b)
        assert result == to_signed(a - b)

    @given(i64, i64)
    def test_mul_matches_python(self, a, b):
        result = value_of(Instruction(Op.MUL, rd=1, rs1=2, rs2=3), a, b)
        assert result == to_signed(a * b)

    @given(i64, i64)
    def test_bitwise(self, a, b):
        for op, fn in ((Op.AND, lambda: a & b), (Op.OR, lambda: a | b), (Op.XOR, lambda: a ^ b)):
            result = value_of(Instruction(op, rd=1, rs1=2, rs2=3), a, b)
            assert result == to_signed(fn())

    @given(i64)
    def test_div_by_zero_is_defined(self, a):
        assert value_of(Instruction(Op.DIV, rd=1, rs1=2, rs2=3), a, 0) == -1
        assert value_of(Instruction(Op.REM, rd=1, rs1=2, rs2=3), a, 0) == a

    def test_div_truncates_toward_zero(self):
        assert value_of(Instruction(Op.DIV, rd=1, rs1=2, rs2=3), -7, 2) == -3

    @given(i64, st.integers(min_value=0, max_value=63))
    def test_shifts(self, a, sh):
        sll = value_of(Instruction(Op.SLL, rd=1, rs1=2, rs2=3), a, sh)
        assert sll == to_signed(a << sh)
        srl = value_of(Instruction(Op.SRL, rd=1, rs1=2, rs2=3), a, sh)
        assert srl == to_signed((a & (2**64 - 1)) >> sh)

    @given(i64, i64)
    def test_slt(self, a, b):
        result = value_of(Instruction(Op.SLT, rd=1, rs1=2, rs2=3), a, b)
        assert result == (1 if a < b else 0)

    def test_immediate_forms_use_imm_not_rs2(self):
        assert value_of(Instruction(Op.ADDI, rd=1, rs1=2, imm=7), 10, 999) == 17

    def test_li_ignores_operands(self):
        assert value_of(Instruction(Op.LI, rd=1, imm=-5), 11, 22) == -5


class TestControlSemantics:
    @pytest.mark.parametrize(
        "op,a,b,taken",
        [
            (Op.BEQ, 1, 1, True),
            (Op.BEQ, 1, 2, False),
            (Op.BNE, 1, 2, True),
            (Op.BNE, 1, 1, False),
            (Op.BLT, -1, 0, True),
            (Op.BLT, 0, 0, False),
            (Op.BGE, 0, 0, True),
            (Op.BGE, -1, 0, False),
        ],
    )
    def test_branch_conditions(self, op, a, b, taken):
        result = control_of(Instruction(op, rs1=1, rs2=2, target=99), 10, a, b)
        assert result == (taken, 99 if taken else 11, None)

    def test_call_links_and_jumps(self):
        taken, next_pc, value = control_of(
            Instruction(Op.CALL, rd=REG_RA, target=50), 10
        )
        assert (taken, next_pc, value) == (True, 50, 11)

    def test_jr_jumps_through_register(self):
        _, next_pc, _ = control_of(Instruction(Op.JR, rs1=REG_RA), 10, 77)
        assert next_pc == 77

    def test_halt_sets_flag(self):
        entry, state = step_one(Instruction(Op.HALT), {}, {})
        assert state.halted
        assert (entry.next_pc, entry.value) == (1, None)
        _, state = step_one(Instruction(Op.NOP), {}, {})
        assert not state.halted

    def test_load_reports_address_only(self):
        """A load reads memory at its effective address into ``rd``."""
        entry, state = step_one(
            Instruction(Op.LOAD, rd=1, rs1=2, imm=8), {2: 100}, {108: 42}
        )
        assert (entry.addr, entry.value, entry.store_value) == (108, 42, None)
        assert state.read_reg(1) == 42

    def test_store_reports_address_and_data(self):
        """A store writes ``rs2`` to memory at its effective address."""
        entry, state = step_one(
            Instruction(Op.STORE, rs1=2, rs2=3, imm=8), {2: 100, 3: 55}, {}
        )
        assert (entry.addr, entry.value, entry.store_value) == (108, None, 55)
        assert state.mem.snapshot() == {108: 55}


class TestSourcesAndDest:
    def test_alu_rr_sources(self):
        instr = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
        assert instr.sources == (2, 3)
        assert instr.dest == 1

    def test_store_reads_base_and_data(self):
        instr = Instruction(Op.STORE, rs1=2, rs2=3)
        assert set(instr.sources) == {2, 3}
        assert instr.dest is None

    def test_li_reads_nothing(self):
        assert Instruction(Op.LI, rd=1, imm=3).sources == ()

    def test_write_to_r0_is_discarded(self):
        assert Instruction(Op.ADD, rd=0, rs1=1, rs2=2).dest is None

    def test_return_detection(self):
        assert Instruction(Op.JR, rs1=REG_RA).is_return
        assert not Instruction(Op.JR, rs1=5).is_return


#: registers the table is pinned over: r0 (reads as zero, writes
#: discarded), two ordinary registers and the link register
_REGS = (REG_ZERO, 1, 2, REG_RA)


def expected_sources(op: Op, rs1: int, rs2: int) -> tuple[int, ...]:
    """The registers an instruction's format reads, per op class."""
    if op in ALU_RR_OPS:  # rd, rs1, rs2
        return (rs1, rs2)
    if op in COND_BRANCH_OPS:  # rs1, rs2, target
        return (rs1, rs2)
    if op is Op.STORE:  # mem[rs1 + imm] = rs2
        return (rs1, rs2)
    if op is Op.LI:  # rd, imm
        return ()
    if op in ALU_RI_OPS:  # rd, rs1, imm
        return (rs1,)
    if op is Op.LOAD:  # rd = mem[rs1 + imm]
        return (rs1,)
    if op is Op.JR:  # jump through rs1
        return (rs1,)
    return ()  # JUMP, CALL, NOP, HALT


#: ops that write their ``rd``: ALU results, loads and the call link
_WRITES_RD = ALU_RR_OPS | ALU_RI_OPS | {Op.LOAD, Op.CALL}


class TestDecodeTable:
    """Every decoded slot of every opcode against its definition."""

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_slots_match_definitions(self, op):
        for rd in _REGS:
            for rs1 in _REGS:
                for rs2 in _REGS:
                    instr = Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
                    where = (op, rd, rs1, rs2)
                    assert instr.opcode == op.value, where
                    assert instr.is_branch == (op in COND_BRANCH_OPS), where
                    assert instr.is_control == (op in CONTROL_OPS), where
                    assert instr.is_indirect == (op is Op.JR), where
                    assert instr.is_call == (op is Op.CALL), where
                    assert instr.is_return == (
                        op is Op.JR and rs1 == REG_RA
                    ), where
                    assert instr.is_load == (op is Op.LOAD), where
                    assert instr.is_store == (op is Op.STORE), where
                    assert instr.is_mem == (op in MEMORY_OPS), where
                    sources = expected_sources(op, rs1, rs2)
                    assert instr.sources == sources, where
                    assert instr.reads_rs1 == (rs1 in sources), where
                    assert instr.reads_rs2 == (rs2 in sources), where
                    writes = op in _WRITES_RD and rd != REG_ZERO
                    assert instr.dest == (rd if writes else None), where

    def test_every_opcode_has_one_semantic_definition(self):
        """A value kernel, a control kernel, or LOAD/STORE — exactly one."""
        assert len(VALUE_KERNELS) == len(CONTROL_KERNELS) == max(
            op.value for op in Op
        ) + 1
        for op in Op:
            definitions = (
                VALUE_KERNELS[op.value] is not None,
                CONTROL_KERNELS[op.value] is not None,
                op in MEMORY_OPS,
            )
            assert definitions.count(True) == 1, op
            assert definitions[1] == (op in CONTROL_OPS), op


class TestAssembler:
    def test_round_trip_simple(self):
        program = assemble(
            """
            .entry main
            main:
                li r1, 5
                addi r1, r1, -1
                bne r1, r0, main
                halt
            """
        )
        assert len(program) == 4
        assert program.entry == 0
        assert program[2].target == 0

    def test_labels_forward_and_backward(self):
        program = assemble(
            """
            start: jump end
            mid:   nop
            end:   beq r0, r0, mid
                   halt
            """
        )
        assert program[0].target == 2
        assert program[2].target == 1

    def test_register_aliases(self):
        program = assemble("jr ra\nhalt")
        assert program[0].rs1 == REG_RA

    def test_data_directive(self):
        program = assemble(".data 100 1 2 3\nhalt")
        assert program.data == {100: 1, 101: 2, 102: 3}

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: halt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jump nowhere\nhalt")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(f"addi r{NUM_REGS}, r0, 1\nhalt")

    def test_missing_halt_rejected(self):
        with pytest.raises(ValueError):
            assemble("nop")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2\nhalt")

    def test_comments_ignored(self):
        program = assemble("nop # comment\nnop ; other\nhalt")
        assert len(program) == 3

    def test_disassemble_round_trip(self):
        source = """
            li r1, 10
        loop:
            addi r1, r1, -1
            store r1, r2, 4
            load r3, r2, 4
            bne r1, r0, loop
            call fn
            halt
        fn:
            jr ra
        """
        program = assemble(source)
        text = "\n".join(disassemble(instr) for instr in program.instructions)
        reparsed = assemble(text + "\n")
        assert [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in reparsed.instructions
        ] == [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in program.instructions
        ]

    def test_every_opcode_is_assemblable(self):
        lines = []
        for op in Op:
            name = op.name.lower()
            if op in ALU_RR_OPS:
                lines.append(f"{name} r1, r2, r3")
            elif op is Op.LI:
                lines.append("li r1, 5")
            elif op in ALU_RI_OPS:
                lines.append(f"{name} r1, r2, 5")
            elif op in (Op.LOAD,):
                lines.append("load r1, r2, 0")
            elif op is Op.STORE:
                lines.append("store r1, r2, 0")
            elif op in COND_BRANCH_OPS:
                lines.append(f"{name} r1, r2, 0")
            elif op in (Op.JUMP, Op.CALL):
                lines.append(f"{name} 0")
            elif op is Op.JR:
                lines.append("jr ra")
            else:
                lines.append(name)
        program = assemble("\n".join(lines))
        assert len(program) == len(list(Op))
