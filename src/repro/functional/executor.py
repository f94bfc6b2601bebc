"""Functional (architectural) execution of programs.

Produces :class:`TraceEntry` records — the golden dynamic instruction
stream that the idealized study consumes and that the detailed core
co-simulates against at retirement.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionLimitExceeded
from ..isa import (
    CONTROL_KERNELS,
    REG_ZERO,
    VALUE_KERNELS,
    Instruction,
    Op,
    Program,
    effective_addr,
)
from .state import ArchState


@dataclass(slots=True)
class TraceEntry:
    """One dynamic instruction from architectural execution."""

    seq: int
    pc: int
    instr: Instruction
    taken: bool
    next_pc: int
    addr: int | None
    value: int | None
    store_value: int | None


def step(state: ArchState, program: Program, seq: int = 0) -> TraceEntry:
    """Execute the instruction at ``state.pc``, updating ``state``.

    Running off the end of the program is treated as HALT (this happens
    only on wrong paths; validated programs end with an explicit HALT).

    Calls the per-opcode kernels of :mod:`repro.isa.instructions`
    (``VALUE_KERNELS``, ``CONTROL_KERNELS`` and ``effective_addr``)
    directly, as the detailed core's issue stage does, so the two share
    one definition of each opcode's semantics.
    """
    pc = state.pc
    instr = program.fetch(pc)
    if instr is None:
        state.halted = True
        return TraceEntry(seq, pc, _HALT, False, pc + 1, None, None, None)
    regs = state.regs
    rs1 = instr.rs1
    rs2 = instr.rs2
    a = regs[rs1] if rs1 != REG_ZERO else 0
    b = regs[rs2] if rs2 != REG_ZERO else 0
    dest = instr.dest
    if instr.is_mem:
        addr = effective_addr(instr, a)
        state.pc = pc + 1
        if instr.is_load:
            value = state.mem.read(addr)
            if dest is not None:
                regs[dest] = value
            return TraceEntry(seq, pc, instr, False, pc + 1, addr, value, None)
        state.mem.write(addr, b)
        return TraceEntry(seq, pc, instr, False, pc + 1, addr, None, b)
    if instr.is_control:
        taken, next_pc, value = CONTROL_KERNELS[instr.opcode](instr, pc, a, b)
        if dest is not None:
            regs[dest] = value  # the call link address
        state.pc = next_pc
        return TraceEntry(seq, pc, instr, taken, next_pc, None, value, None)
    value = VALUE_KERNELS[instr.opcode](instr, a, b)
    if dest is not None:
        regs[dest] = value
    state.pc = pc + 1
    if instr.op is Op.HALT:
        state.halted = True
    return TraceEntry(seq, pc, instr, False, pc + 1, None, value, None)


# Sentinel instruction for off-the-end wrong-path fetch.
_HALT = Instruction(Op.HALT)


def run(
    program: Program, max_steps: int = 5_000_000, state: ArchState | None = None
) -> list[TraceEntry]:
    """Run ``program`` to HALT, returning the golden dynamic trace."""
    if state is None:
        state = ArchState(pc=program.entry)
        for addr, value in program.data.items():
            state.mem.write(addr, value)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")
    trace: list[TraceEntry] = []
    seq = 0
    while not state.halted:
        if seq >= max_steps:
            # Never return a silently truncated trace: a partial golden
            # reference would turn co-simulation into false divergences.
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_steps} dynamic instructions"
            )
        trace.append(step(state, program, seq))
        seq += 1
    return trace


def trace_iter(program: Program, max_steps: int = 5_000_000):
    """Generator variant of :func:`run` for streaming consumers.

    Yields ``(entry, state)`` pairs; ``state`` is the architectural state
    *after* the instruction executed, which wrong-path forking uses.
    """
    state = ArchState(pc=program.entry)
    for addr, value in program.data.items():
        state.mem.write(addr, value)
    seq = 0
    while not state.halted:
        if seq >= max_steps:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_steps} dynamic instructions"
            )
        yield step(state, program, seq), state
        seq += 1


def wrong_path(
    state_after_branch: ArchState,
    program: Program,
    wrong_pc: int,
    stop_pcs: frozenset[int] | set[int],
    cap: int,
) -> tuple[list[TraceEntry], bool]:
    """Speculatively execute the wrong path starting at ``wrong_pc``.

    ``state_after_branch`` must be the architectural state just after the
    mispredicted branch executed (the branch itself writes no register,
    so the state equals the pre-branch state for data purposes).  The
    walk stops when it reaches any PC in ``stop_pcs`` (the reconvergent
    point), executes ``cap`` instructions, or halts.

    Returns ``(entries, reached_stop)``; ``reached_stop`` is True when
    the walk ended because fetch arrived at a stop PC (the reconvergent
    point), False when it ran out of budget or halted.  The forked
    state's memory overlay records speculative store addresses.
    Wrong-path conditional branches follow their speculatively computed
    outcome, which is what an execution-driven machine whose wrong-path
    predictions all agreed with the speculative data would do
    (documented in DESIGN.md).
    """
    spec = state_after_branch.fork(wrong_pc)
    entries: list[TraceEntry] = []
    while not spec.halted and len(entries) < cap:
        if spec.pc in stop_pcs:
            return entries, True
        entries.append(step(spec, program, seq=len(entries)))
    return entries, bool(stop_pcs) and spec.pc in stop_pcs
