"""Delta-debugging shrinker: minimize a divergent program.

A fuzz-found divergence on a 150-instruction program is a chore to
debug; the same divergence on 15 instructions is usually obvious.  The
shrinker reduces a program while preserving a caller-supplied predicate
("still diverges the same way", re-evaluated by the oracle), in two
phases:

1. **ddmin over NOP replacement** — classic delta debugging on the
   instruction list, but candidates *replace* instructions with ``NOP``
   instead of deleting them, so every PC, branch target and label stays
   valid by construction and no relocation can mask or manufacture a
   divergence mid-search;
2. **compaction** — the surviving NOPs are actually deleted and branch
   targets remapped (a target is moved to the first surviving
   instruction at or after it); the compacted program is kept only if
   the predicate still holds, since relocation shifts PCs and a
   PC-indexed structure (predictor, reconvergence table) may behave
   differently.

The predicate must treat *any* failure of the candidate (lint, runaway
execution) as "not interesting"; :func:`divergence_predicate` wraps the
oracle accordingly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace as dc_replace
from typing import Callable

from ..errors import ExecutionLimitExceeded, ReproError
from ..isa import Instruction, Op, Program
from .oracle import run_oracle

_NOP = Instruction(Op.NOP)


def _with_nops(program: Program, keep: set[int]) -> Program:
    """The program with every instruction outside ``keep`` NOPped."""
    instructions = [
        instr if index in keep else _NOP
        for index, instr in enumerate(program.instructions)
    ]
    return Program(
        instructions,
        labels=dict(program.labels),
        data=dict(program.data),
        entry=program.entry,
        name=program.name,
    )


def _live_indices(program: Program) -> list[int]:
    return [
        index
        for index, instr in enumerate(program.instructions)
        if instr.op is not Op.NOP
    ]


def compact(program: Program) -> Program:
    """Delete NOPs, remapping branch targets and the entry point.

    A control target is remapped to the first surviving instruction at
    or after the old target (NOP runs fall through, so jumping to the
    run's end is behaviour-preserving for *architectural* execution).
    """
    live = _live_indices(program)
    if len(live) == len(program.instructions):
        return program

    def remap(old_pc: int) -> int:
        # first surviving instruction at or after the old pc; may be
        # past-the-end, in which case Program.validate rejects the
        # candidate and the caller keeps the NOPped form instead
        return bisect_left(live, old_pc)

    instructions = []
    for old_pc in live:
        instr = program.instructions[old_pc]
        if instr.is_control and not instr.is_indirect:
            instr = dc_replace(instr, target=remap(instr.target))
        instructions.append(instr)
    labels = {
        label: remap(pc)
        for label, pc in program.labels.items()
        if remap(pc) < len(instructions)
    }
    return Program(
        instructions,
        labels=labels,
        data=dict(program.data),
        entry=remap(program.entry),
        name=program.name,
    )


def shrink_program(
    program: Program,
    predicate: Callable[[Program], bool],
    max_rounds: int = 12,
) -> Program:
    """Minimize ``program`` while ``predicate`` stays true.

    ``predicate(candidate)`` must return True iff the candidate still
    exhibits the original divergence; it must return False (not raise)
    for candidates that fail for unrelated reasons.  Returns the
    smallest program found (possibly the input if nothing could go).
    """
    if not predicate(program):
        raise ValueError(
            "shrink_program: the predicate does not hold on the input "
            "program — nothing to minimize"
        )
    keep = set(range(len(program.instructions)))
    granularity = 2
    rounds = 0
    # ddmin: try removing complement chunks at increasing granularity.
    while rounds < max_rounds and len(keep) > 1:
        rounds += 1
        ordered = sorted(keep)
        chunk = max(1, len(ordered) // granularity)
        removed_any = False
        start = 0
        while start < len(ordered):
            candidate_removal = set(ordered[start:start + chunk])
            trial = keep - candidate_removal
            if trial and predicate(_with_nops(program, trial)):
                keep = trial
                ordered = sorted(keep)
                removed_any = True
                # the chunk is gone; the same start now addresses the
                # next chunk, so don't advance
                continue
            start += chunk
        if removed_any:
            granularity = max(2, granularity - 1)
        elif chunk == 1:
            break  # minimal at single-instruction granularity
        else:
            granularity = min(len(ordered), granularity * 2)
    best = _with_nops(program, keep)
    compacted = compact(best)
    if predicate(compacted):
        return compacted
    return best


def divergence_predicate(
    machines: tuple[str, ...],
    mutants: tuple[str, ...],
    signature: dict[str, str],
    overrides: dict | None = None,
    max_steps: int = 500_000,
) -> Callable[[Program], bool]:
    """A predicate: "the candidate still shows the same divergence".

    ``signature`` maps machine name -> divergence kind (from
    :meth:`~repro.fuzz.oracle.OracleReport.kinds`); a candidate is
    interesting iff every signature entry reproduces with the same kind.
    Any unrelated failure (lint, runaway reference execution) makes the
    candidate uninteresting rather than aborting the search.
    """

    def predicate(candidate: Program) -> bool:
        try:
            candidate.validate()
            report = run_oracle(
                candidate,
                machines=machines,
                mutants=mutants,
                overrides=overrides,
                max_steps=max_steps,
            )
        except (ExecutionLimitExceeded, ReproError, ValueError):
            return False
        found = report.kinds()
        return all(found.get(machine) == kind for machine, kind in signature.items())

    return predicate


__all__ = ["compact", "divergence_predicate", "shrink_program"]
