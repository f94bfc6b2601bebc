"""Configuration for the detailed execution-driven simulator (paper Sec 4.1).

Every appendix ablation is a knob here:

* ``completion_model`` / ``hide_false_mispredictions`` — Appendix A.2's
  seven branch-completion configurations (non-spec, spec-C, spec-D, spec
  and their -HFM variants).
* ``repredict_mode`` — Appendix A.3.2's CI-NR / CI / CI-OR.
* ``segment_size`` — Appendix A.4's segmented reorder buffer.
* ``reconv_policy`` — Appendix A.5's hardware heuristics versus software
  post-dominator information.
* ``preemption`` — Appendix A.1's simple versus optimal preemption.
* ``instant_redispatch`` — Section 4.2's CI-I machine.

The rest of the Section 4.1 machine is fixed, not configured: the
:data:`~repro.ideal.models.WIDTH`-wide (16) stages, the
:data:`~repro.ideal.models.DEFAULT_LATENCIES` op latencies, the 2^16
gshare/CTB front end (:class:`~repro.bpred.FrontEnd`'s defaults) and
the 64KB 4-way data cache with 2-cycle hits and 14-cycle misses
(:class:`~repro.memsys.SetAssociativeCache`'s defaults).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError
from ..ideal.models import is_count


class CompletionModel(enum.Enum):
    """When a branch may complete and trigger recovery (Appendix A.2.1)."""

    NON_SPEC = "non-spec"  # in-order branches + all older stores resolved
    SPEC_D = "spec-D"  # in-order branches, data-speculative operands allowed
    SPEC_C = "spec-C"  # out-of-order branches, no data-speculative operands
    SPEC = "spec"  # complete whenever the outcome is computed

    @property
    def branches_in_order(self) -> bool:
        return self in (CompletionModel.NON_SPEC, CompletionModel.SPEC_D)

    @property
    def requires_resolved_stores(self) -> bool:
        return self in (CompletionModel.NON_SPEC, CompletionModel.SPEC_C)


class RepredictMode(enum.Enum):
    """Re-predict sequences during redispatch (Appendix A.3.2)."""

    NONE = "CI-NR"  # initial predictions kept until branches complete
    HEURISTIC = "CI"  # predictor re-predicts; completed branches force it
    ORACLE = "CI-OR"  # correct predictions are never overturned


class ReconvPolicy(enum.Enum):
    """How reconvergent points are identified (Sec 3.2.1 + Appendix A.5)."""

    NONE = "none"  # complete squash (the BASE machine)
    POSTDOM = "postdom"  # software post-dominator analysis
    RETURN = "return"  # predicted targets of returns
    LOOP = "loop"  # predicted targets of backward branches
    LTB = "ltb"  # not-taken target of mispredicted backward branches
    RETURN_LOOP = "return/loop"
    RETURN_LTB = "return/ltb"
    LOOP_LTB = "loop/ltb"
    RETURN_LOOP_LTB = "return/loop/ltb"

    @property
    def uses_return(self) -> bool:
        return "return" in self.value

    @property
    def uses_loop(self) -> bool:
        return "loop" in self.value and self is not ReconvPolicy.LTB

    @property
    def uses_ltb(self) -> bool:
        return "ltb" in self.value

    @property
    def exploits_ci(self) -> bool:
        return self is not ReconvPolicy.NONE


class Preemption(enum.Enum):
    """Handling of mispredictions during an active restart (Appendix A.1)."""

    SIMPLE = "simple"
    OPTIMAL = "optimal"


@dataclass
class CoreConfig:
    """The knobs of the detailed processor that the paper varies."""

    window_size: int = 256
    segment_size: int = 1  # ROB segment granularity (Appendix A.4)

    reconv_policy: ReconvPolicy = ReconvPolicy.POSTDOM
    completion_model: CompletionModel = CompletionModel.SPEC_C
    hide_false_mispredictions: bool = False  # the -HFM oracle variants
    repredict_mode: RepredictMode = RepredictMode.HEURISTIC
    preemption: Preemption = Preemption.OPTIMAL
    instant_redispatch: bool = False  # CI-I: 1-cycle redispatch
    oracle_global_history: bool = False  # Appendix A.3.1

    #: safety valve for runaway simulations
    max_cycles: int = 20_000_000
    #: forward-progress watchdog: cycles without a retirement before the
    #: run is declared livelocked (SimulationHang), far below max_cycles
    watchdog_cycles: int = 50_000
    #: with exact post-dominator reconvergence the commit-time next-PC
    #: check should never fire; strict mode escalates a sequence repair
    #: to CosimulationError instead of silently healing (used by the
    #: fault-injection suite to expose corrupted reconvergence state)
    strict_commit: bool = False

    def validate(self) -> "CoreConfig":
        """Reject inconsistent knob combinations before simulation.

        Raises :class:`~repro.errors.ConfigError` naming the offending
        knob(s); returns ``self`` so call sites can chain.  Run by
        ``Processor.__init__`` so a bad sweep point fails in microseconds
        instead of mid-simulation.
        """
        def require(cond: bool, message: str) -> None:
            if not cond:
                raise ConfigError(f"invalid CoreConfig: {message}")

        def positive(*knobs: str) -> None:
            for knob in knobs:
                value = getattr(self, knob)
                require(
                    is_count(value, 1),
                    f"{knob} must be a positive integer, got {value!r}",
                )

        positive("window_size", "segment_size", "max_cycles", "watchdog_cycles")
        # Boolean knobs are read by truthiness, so a string such as
        # "no" would silently turn one on.
        for knob in (
            "hide_false_mispredictions", "instant_redispatch",
            "oracle_global_history", "strict_commit",
        ):
            value = getattr(self, knob)
            require(
                isinstance(value, bool),
                f"{knob} must be a bool, got {value!r}",
            )
        require(
            self.window_size % self.segment_size == 0,
            f"window_size ({self.window_size}) must be a multiple of "
            f"segment_size ({self.segment_size})",
        )
        require(
            isinstance(self.reconv_policy, ReconvPolicy),
            f"reconv_policy must be a ReconvPolicy, got {self.reconv_policy!r}",
        )
        require(
            isinstance(self.completion_model, CompletionModel),
            f"completion_model must be a CompletionModel, "
            f"got {self.completion_model!r}",
        )
        require(
            isinstance(self.repredict_mode, RepredictMode),
            f"repredict_mode must be a RepredictMode, got {self.repredict_mode!r}",
        )
        require(
            isinstance(self.preemption, Preemption),
            f"preemption must be a Preemption, got {self.preemption!r}",
        )
        require(
            not (self.instant_redispatch and not self.reconv_policy.exploits_ci),
            "instant_redispatch (the CI-I machine) requires a reconvergence "
            "policy that exploits control independence, but reconv_policy "
            "is ReconvPolicy.NONE",
        )
        require(
            not self.strict_commit
            or self.reconv_policy in (ReconvPolicy.POSTDOM, ReconvPolicy.NONE),
            "strict_commit requires exact reconvergence information "
            "(ReconvPolicy.POSTDOM or NONE): the hardware heuristics "
            "mis-splice legitimately and rely on commit-time repair",
        )
        return self
