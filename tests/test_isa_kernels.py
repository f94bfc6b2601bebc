"""Property test: every per-opcode kernel against a reference ALU.

``repro.isa.instructions`` defines each opcode's semantics once, as one
kernel per opcode (``VALUE_KERNELS`` / ``CONTROL_KERNELS``) plus
``effective_addr``.  The reference below is the earlier formulation —
one enum-membership cascade over all ALU ops, wrapping through a
branchy ``to_signed`` — kept here verbatim so the two independent
spellings of the semantics check each other on int64 edges, negative
operands, out-of-range immediates, division by zero and shift amounts
of 64 and more.
"""

from hypothesis import given, strategies as st

from repro.isa import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    CONTROL_KERNELS,
    VALUE_KERNELS,
    Instruction,
    Op,
    effective_addr,
)

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def ref_to_signed(value: int) -> int:
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        value -= 1 << 64
    return value


def ref_alu(op: Op, a: int, b: int) -> int:
    if op in (Op.ADD, Op.ADDI, Op.LI):
        return ref_to_signed(a + b)
    if op is Op.SUB:
        return ref_to_signed(a - b)
    if op is Op.MUL:
        return ref_to_signed(a * b)
    if op in (Op.DIV, Op.REM):
        if b == 0:
            return -1 if op is Op.DIV else a
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if op is Op.DIV:
            return ref_to_signed(q)
        return ref_to_signed(a - q * b)
    if op in (Op.AND, Op.ANDI):
        return ref_to_signed(a & b)
    if op in (Op.OR, Op.ORI):
        return ref_to_signed(a | b)
    if op in (Op.XOR, Op.XORI):
        return ref_to_signed(a ^ b)
    if op in (Op.SLL, Op.SLLI):
        return ref_to_signed(a << (b & 63))
    if op in (Op.SRL, Op.SRLI):
        return ref_to_signed((a & _WORD_MASK) >> (b & 63))
    if op in (Op.SLT, Op.SLTI):
        return 1 if a < b else 0
    raise ValueError(f"not an ALU op: {op}")


EDGES = [
    0, 1, -1, 2, -2, 63, 64, 65, 127, 128, 255,
    _SIGN_BIT - 1, -_SIGN_BIT, -_SIGN_BIT + 1, _SIGN_BIT, _WORD_MASK,
    1 << 32, -(1 << 32),
]

#: register operands: anything a 64-bit register can hold, edges first
operand = st.one_of(
    st.sampled_from(EDGES),
    st.integers(min_value=-_SIGN_BIT, max_value=_SIGN_BIT - 1),
)
#: immediates and unchecked inputs: also well outside the int64 range
wide = st.one_of(operand, st.integers(min_value=-(1 << 80), max_value=1 << 80))
#: shift amounts and small divisors, including 0 and >= 64
small = st.integers(min_value=-300, max_value=300)


class TestValueKernels:
    @given(op=st.sampled_from(sorted(ALU_RR_OPS, key=lambda o: o.value)),
           a=wide, b=st.one_of(wide, small))
    def test_register_register(self, op, a, b):
        instr = Instruction(op, rd=1, rs1=2, rs2=3)
        assert VALUE_KERNELS[op.value](instr, a, b) == ref_alu(op, a, b)

    @given(op=st.sampled_from(sorted(ALU_RI_OPS, key=lambda o: o.value)),
           a=wide, b=wide, imm=st.one_of(wide, small))
    def test_register_immediate(self, op, a, b, imm):
        instr = Instruction(op, rd=1, rs1=2, imm=imm)
        # the immediate replaces rs2, and LI ignores its register too
        expected = ref_alu(op, 0 if op is Op.LI else a, imm)
        assert VALUE_KERNELS[op.value](instr, a, b) == expected

    @given(a=operand, b=st.sampled_from([0, 1, -1, 64, -64]))
    def test_division_edges(self, a, b):
        for op in (Op.DIV, Op.REM):
            instr = Instruction(op, rd=1, rs1=2, rs2=3)
            assert VALUE_KERNELS[op.value](instr, a, b) == ref_alu(op, a, b)

    @given(a=operand, b=operand)
    def test_no_result_ops(self, a, b):
        for op in (Op.NOP, Op.HALT):
            assert VALUE_KERNELS[op.value](Instruction(op), a, b) is None

    def test_table_covers_exactly_the_value_ops(self):
        value_ops = ALU_RR_OPS | ALU_RI_OPS | {Op.NOP, Op.HALT}
        for op in Op:
            assert (VALUE_KERNELS[op.value] is not None) == (op in value_ops), op


class TestControlKernels:
    @given(op=st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE]),
           a=operand, b=st.one_of(operand, st.sampled_from(EDGES)),
           pc=st.integers(0, 1 << 20), target=st.integers(0, 1 << 20))
    def test_conditional_branches(self, op, a, b, pc, target):
        taken = {
            Op.BEQ: a == b, Op.BNE: a != b, Op.BLT: a < b, Op.BGE: a >= b,
        }[op]
        instr = Instruction(op, rs1=1, rs2=2, target=target)
        assert CONTROL_KERNELS[op.value](instr, pc, a, b) == (
            taken, target if taken else pc + 1, None
        )

    @given(a=wide, pc=st.integers(0, 1 << 20), target=st.integers(0, 1 << 20))
    def test_jumps(self, a, pc, target):
        jump = Instruction(Op.JUMP, target=target)
        call = Instruction(Op.CALL, rd=63, target=target)
        jr = Instruction(Op.JR, rs1=5)
        assert CONTROL_KERNELS[Op.JUMP.value](jump, pc, a, 0) == (True, target, None)
        assert CONTROL_KERNELS[Op.CALL.value](call, pc, a, 0) == (
            True, target, pc + 1
        )
        assert CONTROL_KERNELS[Op.JR.value](jr, pc, a, 0) == (
            True, ref_to_signed(a), None
        )


class TestEffectiveAddress:
    @given(a=wide, imm=wide)
    def test_matches_reference(self, a, imm):
        for op in (Op.LOAD, Op.STORE):
            instr = Instruction(op, rd=1, rs1=2, rs2=3, imm=imm)
            assert effective_addr(instr, a) == ref_to_signed(a + imm)
