"""Workload lint: static checks over assembled :class:`~repro.isa.Program`s.

Rules (rule id → severity):

* ``invalid-target`` (error) — a direct control transfer or the entry
  point lands outside the program.  Checked first; the remaining rules
  need a well-formed CFG and are skipped if this fires.
* ``use-before-def`` (error when the register is *never* written on any
  path, warning when only some path skips the write) — the machine
  defines such reads as architectural zero, so this is a smell, not a
  crash; but in every real workload bug so far it was an unintended
  dependence on the zero-initialised register file.
* ``dead-write`` (warning) — a register result no path ever reads.
* ``unreachable`` (warning) — a basic block no analysis root reaches.
* ``loop-no-exit`` (error) — a natural loop with no exit edge and no
  halt/return inside: the program cannot terminate once it enters.
* ``loop-no-induction`` (warning) — a conservative termination check:
  no instruction on the back-edge's loop updates any register by a
  constant step (``addi r, r, ±imm`` or ``add/sub r, r, rx``), so
  nothing obviously drives the loop toward an exit condition.
* ``fall-off-end`` (warning) — a reachable path runs past the last
  instruction (the machine treats that as an implicit halt).

The linter never raises on findings; it returns a
:class:`~repro.analysis.diagnostics.LintReport`.  Use
:func:`check_program` to escalate unsuppressed errors into the
structured :class:`~repro.errors.LintFailure`.
"""

from __future__ import annotations

from ..cfg import ControlFlowGraph, immediate_dominators
from ..errors import LintFailure
from ..isa import Op, Program
from .dataflow import dead_writes, instruction_uses_of_undefined
from .diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    Suppression,
    apply_suppressions,
)

#: virtual super-root for dominator queries across all analysis roots
_SUPER_ROOT = -1


def _check_targets(program: Program, report: LintReport) -> bool:
    """``invalid-target``: every direct target and the entry in range."""
    ok = True
    n = len(program)
    for pc, instr in enumerate(program.instructions):
        if instr.is_control and not instr.is_indirect:
            if not 0 <= instr.target < n:
                ok = False
                report.diagnostics.append(Diagnostic(
                    rule="invalid-target",
                    severity=Severity.ERROR,
                    pc=pc,
                    message=(
                        f"{instr.op.name} target {instr.target} is outside "
                        f"the program [0, {n})"
                    ),
                ))
    if not 0 <= program.entry < n:
        ok = False
        report.diagnostics.append(Diagnostic(
            rule="invalid-target",
            severity=Severity.ERROR,
            pc=0,
            message=f"entry point {program.entry} is outside the program [0, {n})",
        ))
    return ok


def _check_unreachable(cfg: ControlFlowGraph, report: LintReport) -> None:
    reachable = cfg.reachable_blocks()
    for block in cfg.blocks:
        if block.index in reachable:
            continue
        report.diagnostics.append(Diagnostic(
            rule="unreachable",
            severity=Severity.WARNING,
            pc=block.start,
            pc_end=block.end,
            message=(
                f"basic block at pc {block.start}..{block.end - 1} is "
                "unreachable from the entry point and every call target"
            ),
        ))


def _check_use_before_def(cfg: ControlFlowGraph, report: LintReport) -> None:
    program = cfg.program
    for pc, reg, definite in instruction_uses_of_undefined(cfg):
        if definite:
            severity = Severity.ERROR
            detail = "is never written on any path to this use"
        else:
            severity = Severity.WARNING
            detail = "is not written on some path to this use"
        report.diagnostics.append(Diagnostic(
            rule="use-before-def",
            severity=severity,
            pc=pc,
            register=reg,
            message=(
                f"{program[pc].op.name} reads r{reg}, which {detail} "
                "(the machine supplies architectural zero)"
            ),
        ))


def _check_dead_writes(cfg: ControlFlowGraph, report: LintReport) -> None:
    program = cfg.program
    for pc, reg in dead_writes(cfg):
        report.diagnostics.append(Diagnostic(
            rule="dead-write",
            severity=Severity.WARNING,
            pc=pc,
            register=reg,
            message=(
                f"{program[pc].op.name} writes r{reg}, but no path reads "
                "the value before it is overwritten or execution ends"
            ),
        ))


def _check_fall_off_end(cfg: ControlFlowGraph, report: LintReport) -> None:
    program = cfg.program
    reachable = cfg.reachable_blocks()
    last = cfg.blocks[-1]
    if last.index not in reachable:
        return
    instr = program[last.last_pc]
    if instr.is_control or instr.op is Op.HALT:
        return
    report.diagnostics.append(Diagnostic(
        rule="fall-off-end",
        severity=Severity.WARNING,
        pc=last.last_pc,
        message=(
            f"execution can fall past the last instruction (pc {last.last_pc}); "
            "the machine treats this as an implicit halt"
        ),
    ))


# ----------------------------------------------------------------------
# loop termination


def _dominators(cfg: ControlFlowGraph) -> dict[int, int]:
    """Immediate dominators over the CFG rooted at a virtual super-root
    connected to every analysis root (so callee bodies are covered)."""
    successors = {b.index: list(b.successors) for b in cfg.blocks}
    successors[_SUPER_ROOT] = cfg.analysis_roots()
    nodes = [_SUPER_ROOT] + [b.index for b in cfg.blocks]
    return immediate_dominators(nodes, successors, _SUPER_ROOT)


def _dominates(idom: dict[int, int], a: int, b: int) -> bool:
    """True if block ``a`` dominates block ``b`` (reflexive)."""
    node = b
    while True:
        if node == a:
            return True
        parent = idom.get(node)
        if parent is None or parent == node:
            return False
        node = parent


def _natural_loop(cfg: ControlFlowGraph, head: int, latch: int) -> set[int]:
    """Blocks of the natural loop of back-edge ``latch -> head``."""
    body = {head, latch}
    stack = [latch]
    while stack:
        index = stack.pop()
        if index == head:
            continue
        for pred in cfg.blocks[index].predecessors:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def _has_induction_update(program: Program, cfg: ControlFlowGraph, body: set[int]) -> bool:
    """Any constant-step register update inside the loop body?"""
    for index in body:
        block = cfg.blocks[index]
        for pc in range(block.start, block.end):
            instr = program[pc]
            if instr.op is Op.ADDI and instr.rd == instr.rs1 and instr.imm != 0:
                return True
            if instr.op in (Op.ADD, Op.SUB) and instr.rd == instr.rs1 and instr.rs2 != 0:
                return True
            if instr.op in (Op.ADD, Op.SUB) and instr.rd == instr.rs2 and instr.rs1 != 0:
                return True
    return False


def _check_loops(cfg: ControlFlowGraph, report: LintReport) -> None:
    program = cfg.program
    idom = _dominators(cfg)
    reachable = cfg.reachable_blocks()
    seen_loops: set[frozenset[int]] = set()
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for succ in block.successors:
            if not _dominates(idom, succ, block.index):
                continue  # not a back-edge
            body = frozenset(_natural_loop(cfg, succ, block.index))
            if body in seen_loops:
                continue
            seen_loops.add(body)
            start = min(cfg.blocks[i].start for i in body)
            end = max(cfg.blocks[i].end for i in body)

            def in_body_terminator(index: int) -> bool:
                last = program[cfg.blocks[index].last_pc]
                return last.op is Op.HALT or last.is_indirect

            has_exit = any(
                any(s not in body for s in cfg.blocks[i].successors)
                or in_body_terminator(i)
                for i in body
            )
            if not has_exit:
                report.diagnostics.append(Diagnostic(
                    rule="loop-no-exit",
                    severity=Severity.ERROR,
                    pc=start,
                    pc_end=end,
                    message=(
                        f"loop at pc {start}..{end - 1} has no exit edge and "
                        "no halt/return inside: it cannot terminate"
                    ),
                ))
                continue
            if not _has_induction_update(program, cfg, body):
                report.diagnostics.append(Diagnostic(
                    rule="loop-no-induction",
                    severity=Severity.WARNING,
                    pc=start,
                    pc_end=end,
                    message=(
                        f"loop at pc {start}..{end - 1} updates no register "
                        "by a constant step; nothing obviously drives its "
                        "exit condition"
                    ),
                ))


# ----------------------------------------------------------------------
# entry points


def lint_program(
    program: Program, suppressions: tuple[Suppression, ...] = ()
) -> LintReport:
    """Run every rule over ``program``; returns the full report.

    ``suppressions`` acknowledge intentional findings; matched
    diagnostics move to ``report.suppressed`` with their reasons.
    """
    report = LintReport(program_name=program.name)
    if _check_targets(program, report):
        cfg = ControlFlowGraph(program)
        _check_unreachable(cfg, report)
        _check_use_before_def(cfg, report)
        _check_dead_writes(cfg, report)
        _check_fall_off_end(cfg, report)
        _check_loops(cfg, report)
    report.diagnostics.sort(key=lambda d: (d.pc, d.rule))
    return apply_suppressions(report, suppressions)


def check_program(
    program: Program, suppressions: tuple[Suppression, ...] = ()
) -> LintReport:
    """Lint and raise :class:`~repro.errors.LintFailure` on unsuppressed
    error-severity findings; returns the report otherwise."""
    report = lint_program(program, suppressions)
    errors = report.errors()
    if errors:
        rendered = "; ".join(d.describe() for d in errors)
        raise LintFailure(
            f"{program.name}: {len(errors)} lint error(s): {rendered}",
            diagnostics=errors,
        )
    return report
