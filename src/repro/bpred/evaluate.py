"""Trace-driven branch prediction measurement (paper Table 1).

Runs the front-end predictor over a golden dynamic trace with perfectly
up-to-date state — the same idealization the paper's Section 2 study
uses (history corrected immediately, tables updated in trace order).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..functional import TraceEntry
from .frontend import FrontEnd


@dataclass
class PredictionReport:
    """Aggregate accuracy of the front end over one trace."""

    instructions: int = 0
    conditional_branches: int = 0
    indirect_jumps: int = 0  # non-return indirect jumps
    returns: int = 0
    conditional_mispredictions: int = 0
    indirect_mispredictions: int = 0
    return_mispredictions: int = 0

    @property
    def predicted_events(self) -> int:
        """Events counted in the paper's misprediction rate (cond + indirect)."""
        return self.conditional_branches + self.indirect_jumps

    @property
    def mispredictions(self) -> int:
        return self.conditional_mispredictions + self.indirect_mispredictions

    @property
    def misprediction_rate(self) -> float:
        if self.predicted_events == 0:
            return 0.0
        return self.mispredictions / self.predicted_events


def measure_prediction(trace: list[TraceEntry]) -> PredictionReport:
    """Measure the paper's front end (default geometry) over a golden trace.

    A blind CTB miss counts as an indirect misprediction whenever its
    sequential fall-through is not where the jump went.  Direct jumps
    and calls are always correct (target known at fetch).
    """
    fe = FrontEnd()
    report = PredictionReport(instructions=len(trace))
    history = 0
    for entry in trace:
        instr = entry.instr
        if not instr.is_control:
            continue
        prediction, history = fe.predict_uptodate(
            instr, entry.pc, history, entry.taken, entry.next_pc
        )
        if instr.is_branch:
            report.conditional_branches += 1
            if prediction.taken != entry.taken:
                report.conditional_mispredictions += 1
        elif instr.is_return:
            report.returns += 1
            if prediction.next_pc != entry.next_pc:
                report.return_mispredictions += 1
        elif instr.is_indirect:
            report.indirect_jumps += 1
            if prediction.next_pc != entry.next_pc:
                report.indirect_mispredictions += 1
    return report
