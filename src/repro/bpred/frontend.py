"""Combined fetch-time predictor: gshare + CTB + RAS (paper Sec. 2.2).

The sequencers (idealized and detailed) call :meth:`predict` for every
fetched control instruction.  Direct jumps and calls are always
predicted correctly (their targets are computable at fetch).  The RAS is
mutated here (push on call, pop on return); callers snapshot/restore it
around speculation to keep it perfect.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Instruction, Op
from .gshare import GsharePredictor
from .targets import CorrelatedTargetBuffer, ReturnAddressStack


@dataclass(slots=True)
class Prediction:
    """Fetch-time prediction for one control instruction."""

    taken: bool
    next_pc: int
    #: history register value used to index the predictor (for update/repair)
    history_used: int = 0
    #: True when the predictor tables had no information (cold CTB miss);
    #: such predictions fall through sequentially.
    blind: bool = False


class FrontEnd:
    """Owns the prediction structures; the GHR itself is owned by callers."""

    def __init__(
        self,
        index_bits: int = 16,
        history_bits: int | None = None,
    ):
        self.gshare = GsharePredictor(index_bits, history_bits)
        self.ctb = CorrelatedTargetBuffer(index_bits)
        self.ras = ReturnAddressStack()

    def predict(self, instr: Instruction, pc: int, history: int) -> Prediction:
        """Predict one control instruction fetched at ``pc``."""
        if instr.op is Op.JUMP:
            return Prediction(True, instr.target, history)
        if instr.is_call:
            self.ras.push(pc + 1)
            return Prediction(True, instr.target, history)
        if instr.is_indirect:
            if instr.is_return:
                target = self.ras.pop()
                if target is None:
                    return Prediction(True, pc + 1, history, blind=True)
                return Prediction(True, target, history)
            target = self.ctb.predict(pc, history)
            if target is None:
                return Prediction(True, pc + 1, history, blind=True)
            return Prediction(True, target, history)
        if instr.is_branch:
            taken = self.gshare.predict(pc, history)
            return Prediction(taken, instr.target if taken else pc + 1, history)
        raise ValueError(f"not a control instruction: {instr.op}")

    def update(
        self,
        instr: Instruction,
        pc: int,
        history: int,
        taken: bool,
        target: int,
    ) -> None:
        """Train tables with the resolved outcome (called at retirement)."""
        if instr.is_branch:
            self.gshare.update(pc, history, taken)
        elif instr.is_indirect and not instr.is_return:
            self.ctb.update(pc, history, target)

    def push_history(self, history: int, taken: bool) -> int:
        return self.gshare.history.push(history, taken)

    def predict_uptodate(
        self,
        instr: Instruction,
        pc: int,
        history: int,
        taken: bool,
        next_pc: int,
    ) -> tuple[Prediction, int]:
        """Predict one control instruction, then train on its actual
        outcome at once; return ``(prediction, history)``.

        This is the perfectly up-to-date front end of Table 1 and the
        Section 2 study: branches update gshare and push ``taken`` into
        the returned history, indirect jumps update the CTB, and calls
        and returns only predict, which keeps the RAS in sync.
        """
        prediction = self.predict(instr, pc, history)
        self.update(instr, pc, history, taken, next_pc)
        if instr.is_branch:
            history = self.push_history(history, taken)
        return prediction, history
