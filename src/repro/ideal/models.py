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
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..isa import Op
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


#: Default execution latencies by coarse op class (cycles in execute).
DEFAULT_LATENCIES = {
    "int": 1,
    "mul": 3,
    "div": 12,
    "load": 2,  # 1 address generation + 1 perfect-cache access (Sec 2.2)
    "store": 1,  # address generation
    "branch": 1,
    "jump": 1,
}


def is_count(value, minimum: int) -> bool:
    """True for a genuine integer ``>= minimum`` (``bool`` is rejected:
    ``True`` is an int to Python but never a meaningful knob value)."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum
    )


def latency_problem(latencies) -> str | None:
    """Why ``latencies`` is not a valid op-class latency table, or None.

    The one latency check behind both ``IdealConfig.validate`` and
    ``CoreConfig.validate``: a dict keyed by exactly the op classes of
    :data:`DEFAULT_LATENCIES`, each an integer of at least one cycle.
    The complete phase runs before issue in both simulators, so a
    0-cycle op would be filed under a cycle that has already completed.
    """
    if not isinstance(latencies, dict):
        return f"latencies must be a dict of op class -> cycles, got {latencies!r}"
    missing = [cls for cls in DEFAULT_LATENCIES if cls not in latencies]
    if missing:
        return f"latencies is missing op classes {missing}"
    unknown = [cls for cls in latencies if cls not in DEFAULT_LATENCIES]
    if unknown:
        return (
            f"latencies has unknown op classes {unknown}; "
            f"known: {list(DEFAULT_LATENCIES)}"
        )
    bad = {cls: lat for cls, lat in latencies.items() if not is_count(lat, 1)}
    if bad:
        return f"latencies must be integers >= 1 cycle, got {bad!r}"
    return None


@dataclass
class IdealConfig:
    """Hardware constraints for the idealized study (paper Section 2.2)."""

    window_size: int = 256
    width: int = 16  # peak fetch, issue and retire rate
    #: extra front-end stages between fetch and earliest issue (fetch+dispatch)
    frontend_stages: int = 2
    latencies: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    #: cap on speculatively fetched wrong-path instructions per misprediction
    wrong_path_cap: int | None = None  # defaults to window_size

    def wrong_path_limit(self) -> int:
        return self.wrong_path_cap if self.wrong_path_cap is not None else self.window_size

    def validate(self) -> "IdealConfig":
        """Reject knob values the scheduler cannot run.

        Raises :class:`~repro.errors.ConfigError` naming the offending
        knob; returns ``self`` so call sites can chain.  Run by
        ``IdealScheduler.__init__``, so a zero window or width fails at
        once instead of spinning toward the cycle cap.
        """
        def require(cond: bool, message: str) -> None:
            if not cond:
                raise ConfigError(f"invalid IdealConfig: {message}")

        require(
            is_count(self.window_size, 1),
            f"window_size must be a positive integer, got {self.window_size!r}",
        )
        require(
            is_count(self.width, 1),
            f"width must be a positive integer, got {self.width!r}",
        )
        require(
            is_count(self.frontend_stages, 0),
            f"frontend_stages must be a non-negative integer, "
            f"got {self.frontend_stages!r}",
        )
        require(
            self.wrong_path_cap is None or is_count(self.wrong_path_cap, 0),
            f"wrong_path_cap must be None or a non-negative integer, "
            f"got {self.wrong_path_cap!r}",
        )
        problem = latency_problem(self.latencies)
        require(problem is None, problem)
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
    if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE):
        return "branch"
    if op in (Op.JUMP, Op.CALL, Op.JR):
        return "jump"
    return "int"


#: latency class name per opcode, resolved once at import time
LATENCY_CLASS: dict[Op, str] = {op: _latency_class(op) for op in Op}


def latency_table(latencies: dict[str, int]) -> list[int]:
    """Resolve a latency config into a dense table indexed by
    ``Instruction.opcode`` — the per-simulation form both cycle-level
    simulators read on their issue paths (one list index instead of an
    enum hash plus membership cascade per issue)."""
    table = [latencies["int"]] * NUM_OPCODES
    for op, cls in LATENCY_CLASS.items():
        table[op.value] = latencies[cls]
    return table


def op_latency(latencies: dict[str, int], op) -> int:
    """Latency class lookup shared by both simulators."""
    return latencies[LATENCY_CLASS[op]]
