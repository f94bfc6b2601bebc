"""Score hardware reconvergence heuristics against exact post-dominators.

The paper assumes a software pass supplies exact reconvergent points
(immediate post-dominators, Section 3.2.1) — which is what
:class:`~repro.cfg.ReconvergenceTable` computes.  Real hardware
proposals instead *guess* the reconvergent point with cheap structural
heuristics.  This module quantifies how much of the exact table those
guesses could ever recover, per workload, as a static upper bound:

* ``next-seq`` — reconverge at the branch's fall-through (``pc + 1``).
  Exact for simple if-then idioms, wrong for if-then-else.
* ``loop`` — backward branches only: reconverge at the loop header
  (``target``) or the loop exit (``pc + 1``).
* ``return`` — reconverge at a call-return site: the candidate set is
  every ``call``'s ``pc + 1``.  Models "reconverge when the enclosing
  function returns" for branches inside callees.
* ``combined`` — union of the applicable sets above, modelling a
  multi-mode predictor that picks the right scheme per branch.

A heuristic proposes a *candidate set* per conditional branch.  Scoring
counts a hit when the exact reconvergent pc is in the set:

* recall — fraction of branches with an exact reconvergent point whose
  point appears in the candidate set (can hardware find it at all?);
* precision — fraction of all proposed candidates that are exact
  reconvergent points (how much wrong-point squashing a hardware table
  trained on these candidates would risk).

Because candidates are scored statically (set membership, not a dynamic
selection policy), both numbers are optimistic bounds on any real
predictor built from the same signals.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg import ReconvergenceTable
from ..isa import Program

#: Heuristic evaluation order (stable for reports).
HEURISTICS = ("next-seq", "loop", "return", "combined")


def _return_sites(program: Program) -> frozenset[int]:
    n = len(program)
    return frozenset(
        pc + 1
        for pc, instr in enumerate(program.instructions)
        if instr.is_call and pc + 1 < n
    )


def heuristic_candidates(
    program: Program, heuristic: str, branch_pc: int
) -> frozenset[int]:
    """Candidate reconvergent pcs ``heuristic`` proposes for one branch.

    An empty set means the heuristic abstains for this branch.
    """
    instr = program[branch_pc]
    fallthrough = branch_pc + 1
    backward = instr.target <= branch_pc
    if heuristic == "next-seq":
        return frozenset({fallthrough})
    if heuristic == "loop":
        if not backward:
            return frozenset()
        return frozenset({instr.target, fallthrough})
    if heuristic == "return":
        return _return_sites(program)
    if heuristic == "combined":
        out = {fallthrough} | _return_sites(program)
        if backward:
            out.add(instr.target)
        return frozenset(out)
    raise ValueError(f"unknown reconvergence heuristic {heuristic!r}")


@dataclass(frozen=True)
class HeuristicScore:
    """Static precision/recall of one heuristic over one program."""

    heuristic: str
    branches: int  #: static conditional branches examined
    with_exact: int  #: branches with an exact (non-exit) reconvergent pc
    hits: int  #: exact pc found in the candidate set
    misses: int  #: exact pc exists but is not in the candidate set
    candidates: int  #: total candidates proposed across all branches

    @property
    def recall(self) -> float:
        return self.hits / self.with_exact if self.with_exact else 1.0

    @property
    def precision(self) -> float:
        return self.hits / self.candidates if self.candidates else 1.0


def score_heuristic(
    program: Program, heuristic: str, table: ReconvergenceTable | None = None
) -> HeuristicScore:
    """Score one heuristic against the exact reconvergence table."""
    if table is None:
        table = ReconvergenceTable(program)
    branches = hits = misses = with_exact = candidates = 0
    for pc, instr in enumerate(program.instructions):
        if not instr.is_branch:
            continue
        branches += 1
        cand = heuristic_candidates(program, heuristic, pc)
        candidates += len(cand)
        exact = table.reconvergent_pc(pc)
        if exact is None:
            continue  # exit-only reconvergence: nothing for hardware to find
        with_exact += 1
        if exact in cand:
            hits += 1
        else:
            misses += 1
    return HeuristicScore(
        heuristic=heuristic,
        branches=branches,
        with_exact=with_exact,
        hits=hits,
        misses=misses,
        candidates=candidates,
    )


def reconvergence_report_row(program: Program) -> dict:
    """One report row: exact-table coverage plus every heuristic's score.

    Shaped for :func:`repro.harness.format_reconv_report`.
    """
    table = ReconvergenceTable(program)
    row: dict = {
        "benchmark": program.name,
        "branches": sum(1 for i in program.instructions if i.is_branch),
        "exact_coverage": table.coverage(),
        "heuristics": {
            h: score_heuristic(program, h, table) for h in HEURISTICS
        },
    }
    return row
