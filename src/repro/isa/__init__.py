"""Toy RISC ISA: opcodes, instruction semantics, programs, assembler."""

from .assembler import AssemblerError, assemble, disassemble
from .instructions import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    COND_BRANCH_OPS,
    CONTROL_OPS,
    MEMORY_OPS,
    NUM_REGS,
    REG_RA,
    REG_SP,
    REG_ZERO,
    CONTROL_KERNELS,
    VALUE_KERNELS,
    Instruction,
    Op,
    effective_addr,
    to_signed,
)
from .program import Program

__all__ = [
    "ALU_RI_OPS",
    "ALU_RR_OPS",
    "COND_BRANCH_OPS",
    "CONTROL_OPS",
    "MEMORY_OPS",
    "NUM_REGS",
    "REG_RA",
    "REG_SP",
    "REG_ZERO",
    "AssemblerError",
    "CONTROL_KERNELS",
    "Instruction",
    "Op",
    "Program",
    "VALUE_KERNELS",
    "assemble",
    "disassemble",
    "effective_addr",
    "to_signed",
]
