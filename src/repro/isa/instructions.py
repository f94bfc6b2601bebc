"""Instruction set for the reproduction's toy RISC machine.

The paper's experiments run SPEC95 binaries compiled for the SimpleScalar
PISA instruction set.  We substitute a small load/store RISC ISA that is
sufficient to express the synthetic workloads while keeping the
simulators simple and fast.  One instruction occupies one "word"; the
program counter advances by 1 per instruction, and data memory is
word-addressed.

The module is deliberately free of any simulator state: the single-step
semantics live in one kernel per opcode (``VALUE_KERNELS`` /
``CONTROL_KERNELS`` plus :func:`effective_addr`).  The out-of-order
core's issue stage and the functional simulator's ``step`` both call the
kernels directly, so there is exactly one definition of what each opcode
does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

NUM_REGS = 64

# Conventional register roles (mirrors common RISC ABIs).
REG_ZERO = 0
REG_RA = 63  # link register written by JAL / call
REG_SP = 62  # stack pointer by convention (no hardware meaning)

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Wrap an arbitrary int to a signed 64-bit value."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        value -= 1 << 64
    return value


class Op(enum.Enum):
    """Every opcode in the ISA."""

    # ALU register-register
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SLT = enum.auto()
    # ALU register-immediate
    ADDI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SLTI = enum.auto()
    LI = enum.auto()
    # Memory
    LOAD = enum.auto()
    STORE = enum.auto()
    # Control
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    JUMP = enum.auto()
    CALL = enum.auto()  # direct call: writes return address to rd (ra)
    JR = enum.auto()  # indirect jump through rs1 (returns, computed calls)
    # Misc
    NOP = enum.auto()
    HALT = enum.auto()


ALU_RR_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.SLT}
)
ALU_RI_OPS = frozenset(
    {Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SLTI, Op.LI}
)
COND_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
CONTROL_OPS = COND_BRANCH_OPS | {Op.JUMP, Op.CALL, Op.JR}
MEMORY_OPS = frozenset({Op.LOAD, Op.STORE})


@dataclass(slots=True)
class Instruction:
    """One static instruction.

    ``target`` holds a resolved absolute PC for control instructions (the
    assembler resolves labels).  ``imm`` is the immediate operand for ALU
    and memory forms.

    The trailing fields are decoded metadata derived once at construction
    — opcode classification flags, the source/destination register sets
    and a dense integer opcode.  They are the ISA's interface: every
    simulator and analysis reads these slots, so each decoded fact has
    one name and one definition, and the hot paths read plain slot
    attributes instead of re-running frozenset membership tests per
    dynamic instruction.  They assume ``op`` / ``rs1`` / ``rs2`` / ``rd``
    are not mutated after construction (the assembler resolves labels
    before building each instruction).
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0
    #: Optional source-level annotation (label of the enclosing block).
    label: str = field(default="", compare=False)

    # Decoded metadata (derived, excluded from equality / repr).
    opcode: int = field(init=False, compare=False, repr=False)
    #: Conditional branches only.
    is_branch: bool = field(init=False, compare=False, repr=False)
    #: Any instruction that can redirect fetch.
    is_control: bool = field(init=False, compare=False, repr=False)
    is_indirect: bool = field(init=False, compare=False, repr=False)
    is_call: bool = field(init=False, compare=False, repr=False)
    #: An indirect jump through the link register.
    is_return: bool = field(init=False, compare=False, repr=False)
    is_load: bool = field(init=False, compare=False, repr=False)
    is_store: bool = field(init=False, compare=False, repr=False)
    is_mem: bool = field(init=False, compare=False, repr=False)
    #: Architectural source registers the instruction actually reads.
    sources: tuple = field(init=False, compare=False, repr=False)
    reads_rs1: bool = field(init=False, compare=False, repr=False)
    reads_rs2: bool = field(init=False, compare=False, repr=False)
    #: Architectural destination register, or None (writes to r0 are
    #: discarded).
    dest: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        op = self.op
        self.opcode = op.value
        self.is_branch = op in COND_BRANCH_OPS
        self.is_control = op in CONTROL_OPS
        self.is_indirect = op is Op.JR
        self.is_call = op is Op.CALL
        self.is_return = op is Op.JR and self.rs1 == REG_RA
        self.is_load = op is Op.LOAD
        self.is_store = op is Op.STORE
        self.is_mem = op in MEMORY_OPS
        if op in ALU_RR_OPS or op in COND_BRANCH_OPS or op is Op.STORE:
            src: tuple[int, ...] = (self.rs1, self.rs2)
        elif op in ALU_RI_OPS:
            src = () if op is Op.LI else (self.rs1,)
        elif op is Op.LOAD or op is Op.JR:
            src = (self.rs1,)
        else:
            src = ()
        self.sources = src
        self.reads_rs1 = self.rs1 in src
        self.reads_rs2 = self.rs2 in src
        if op in ALU_RR_OPS or op in ALU_RI_OPS or op is Op.LOAD or op is Op.CALL:
            self.dest = self.rd if self.rd != REG_ZERO else None
        else:
            self.dest = None


NUM_OPCODES = max(op.value for op in Op) + 1

# ----------------------------------------------------------------------
# per-opcode kernels: the single definition of instruction semantics
#
# Each kernel computes its opcode's result directly, wrapping to signed
# 64 bits with the branch-free ``((x + 2^63) & (2^64 - 1)) - 2^63`` (equal
# to :func:`to_signed`).  The wrap constants are bound as default
# arguments so the hot path reads locals, not globals.  Signed division
# truncates toward zero; division by zero is defined (DIV gives -1, REM
# gives the dividend) so wrong-path execution never traps.


def _add(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((a + b + _s) & _m) - _s


def _sub(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((a - b + _s) & _m) - _s


def _mul(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((a * b + _s) & _m) - _s


def _div(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return ((q + _s) & _m) - _s


def _rem(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    if b == 0:
        return a
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return ((a - q * b + _s) & _m) - _s


def _and(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a & b) + _s) & _m) - _s


def _or(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a | b) + _s) & _m) - _s


def _xor(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a ^ b) + _s) & _m) - _s


def _sll(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a << (b & 63)) + _s) & _m) - _s


def _srl(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((((a & _m) >> (b & 63)) + _s) & _m) - _s


def _slt(instr, a, b):
    return 1 if a < b else 0


def _addi(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((a + instr.imm + _s) & _m) - _s


def _andi(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a & instr.imm) + _s) & _m) - _s


def _ori(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a | instr.imm) + _s) & _m) - _s


def _xori(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a ^ instr.imm) + _s) & _m) - _s


def _slli(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return (((a << (instr.imm & 63)) + _s) & _m) - _s


def _srli(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((((a & _m) >> (instr.imm & 63)) + _s) & _m) - _s


def _slti(instr, a, b):
    return 1 if a < instr.imm else 0


def _li(instr, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return ((instr.imm + _s) & _m) - _s


def _nothing(instr, a, b):
    return None


def _beq(instr, pc, a, b):
    if a == b:
        return True, instr.target, None
    return False, pc + 1, None


def _bne(instr, pc, a, b):
    if a != b:
        return True, instr.target, None
    return False, pc + 1, None


def _blt(instr, pc, a, b):
    if a < b:
        return True, instr.target, None
    return False, pc + 1, None


def _bge(instr, pc, a, b):
    if a >= b:
        return True, instr.target, None
    return False, pc + 1, None


def _jump(instr, pc, a, b):
    return True, instr.target, None


def _call(instr, pc, a, b):
    return True, instr.target, pc + 1


def _jr(instr, pc, a, b, _s=_SIGN_BIT, _m=_WORD_MASK):
    return True, ((a + _s) & _m) - _s, None


def effective_addr(instr: Instruction, a: int) -> int:
    """Effective address of a memory instruction given its base value."""
    return ((a + instr.imm + _SIGN_BIT) & _WORD_MASK) - _SIGN_BIT


def _make_raw_tables() -> tuple[list, list]:
    """Index the per-opcode kernels by dense opcode.

    ``VALUE_KERNELS[opcode](instr, a, b)`` returns the register result of
    a non-memory, non-control instruction (None for NOP/HALT);
    ``CONTROL_KERNELS[opcode](instr, pc, a, b)`` returns
    ``(taken, next_pc, value)`` for a control instruction (``value`` is
    the call link address, else None).  LOAD and STORE have no kernel:
    their semantics are :func:`effective_addr` plus the caller's memory
    access.  The out-of-order core's issue stage and the functional
    ``step`` call these directly, so their hot loops allocate no result
    object per instruction and each opcode's semantics has one
    definition."""
    value_kernels = {
        Op.ADD: _add, Op.SUB: _sub, Op.MUL: _mul, Op.DIV: _div,
        Op.REM: _rem, Op.AND: _and, Op.OR: _or, Op.XOR: _xor,
        Op.SLL: _sll, Op.SRL: _srl, Op.SLT: _slt,
        Op.ADDI: _addi, Op.ANDI: _andi, Op.ORI: _ori, Op.XORI: _xori,
        Op.SLLI: _slli, Op.SRLI: _srli, Op.SLTI: _slti, Op.LI: _li,
        Op.NOP: _nothing, Op.HALT: _nothing,
    }
    control_kernels = {
        Op.BEQ: _beq, Op.BNE: _bne, Op.BLT: _blt, Op.BGE: _bge,
        Op.JUMP: _jump, Op.CALL: _call, Op.JR: _jr,
    }
    values: list = [None] * NUM_OPCODES
    control: list = [None] * NUM_OPCODES
    for op, kernel in value_kernels.items():
        values[op.value] = kernel
    for op, kernel in control_kernels.items():
        control[op.value] = kernel
    return values, control


VALUE_KERNELS, CONTROL_KERNELS = _make_raw_tables()
