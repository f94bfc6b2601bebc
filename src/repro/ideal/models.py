"""The six idealized machine models of paper Section 2.1.

Two orthogonal knobs distinguish the four control-independence models:

* ``WR`` (wasted resources): incorrect control-dependent instructions are
  fetched, occupy window slots and consume issue bandwidth until the
  misprediction is detected.
* ``FD`` (false data dependences): registers and memory locations written
  on the incorrect path poison control-independent consumers until the
  misprediction is resolved (single-cycle repair at detection — the best
  achievable, per the paper).

``ORACLE`` uses perfect branch prediction; ``BASE`` squashes everything
after a misprediction, like a conventional superscalar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError
from ..isa import COND_BRANCH_OPS, CONTROL_OPS, Op
from ..isa.instructions import NUM_OPCODES


class IdealModel(enum.Enum):
    ORACLE = "oracle"
    NWR_NFD = "nWR-nFD"
    NWR_FD = "nWR-FD"
    WR_NFD = "WR-nFD"
    WR_FD = "WR-FD"
    BASE = "base"

    @property
    def wastes_resources(self) -> bool:
        return self in (IdealModel.WR_NFD, IdealModel.WR_FD, IdealModel.BASE)

    @property
    def false_dependences(self) -> bool:
        return self in (IdealModel.NWR_FD, IdealModel.WR_FD)

    @property
    def exploits_ci(self) -> bool:
        """True for the four control-independence models."""
        return self not in (IdealModel.ORACLE, IdealModel.BASE)


#: Execution latencies by coarse op class (cycles in execute).
DEFAULT_LATENCIES = {
    "int": 1,
    "mul": 3,
    "div": 12,
    "load": 2,  # 1 address generation + 1 perfect-cache access (Sec 2.2)
    "store": 1,  # address generation
    "branch": 1,
    "jump": 1,
}

#: peak fetch, dispatch, issue and retire rate of both machines
WIDTH = 16
#: front-end stages between fetch and earliest issue (fetch + dispatch)
FRONTEND_STAGES = 2


def is_count(value, minimum: int) -> bool:
    """True for a genuine integer ``>= minimum`` (``bool`` is rejected:
    ``True`` is an int to Python but never a meaningful knob value)."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum
    )


@dataclass
class IdealConfig:
    """The one swept constraint of the idealized study (paper Section 2.2).

    The rest of the machine is fixed: :data:`WIDTH`-wide fetch, issue
    and retire, :data:`FRONTEND_STAGES` front-end stages and the
    :data:`DEFAULT_LATENCIES` op latencies.  Wrong-path fetch per
    misprediction is bounded by the window size.
    """

    window_size: int = 256

    def validate(self) -> "IdealConfig":
        """Reject a window the scheduler cannot run.

        Raises :class:`~repro.errors.ConfigError`; returns ``self`` so
        call sites can chain.  Run by ``IdealScheduler.__init__``, so a
        zero window fails at once instead of spinning toward the cycle
        cap.
        """
        if not is_count(self.window_size, 1):
            raise ConfigError(
                f"invalid IdealConfig: window_size must be a positive "
                f"integer, got {self.window_size!r}"
            )
        return self


def _latency_class(op: Op) -> str:
    if op is Op.MUL:
        return "mul"
    if op in (Op.DIV, Op.REM):
        return "div"
    if op is Op.LOAD:
        return "load"
    if op is Op.STORE:
        return "store"
    if op in COND_BRANCH_OPS:
        return "branch"
    if op in CONTROL_OPS:
        return "jump"
    return "int"


#: latency class name per opcode, resolved once at import time
LATENCY_CLASS: dict[Op, str] = {op: _latency_class(op) for op in Op}


def _latency_table() -> list[int]:
    table = [DEFAULT_LATENCIES["int"]] * NUM_OPCODES
    for op, cls in LATENCY_CLASS.items():
        table[op.value] = DEFAULT_LATENCIES[cls]
    return table


#: execution latency by dense ``Instruction.opcode``, the form both
#: cycle-level simulators read on their issue paths (one list index
#: instead of an enum hash plus membership cascade per issue)
LATENCY_TABLE: list[int] = _latency_table()
