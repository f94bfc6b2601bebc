"""Pipeline stages of the detailed core, one cohesive module each.

The :class:`~repro.core.processor.Processor` facade composes four
stage mixins over one shared machine state (the attributes built in
``Processor.__init__``) and drives them from its one cycle loop,
``Processor.run``:

* :mod:`.sequencer` — frontend: the one fetch loop (claim, link,
  rename/dispatch, branch prediction) and the context stack that
  services restart and redispatch sequences (plus the
  :class:`~.sequencer._Context` record itself).
* :mod:`.backend` — wakeups, load/store replay, and the
  branch-completion gating models of Appendix A.2; the issue loop and
  the fused complete-and-broadcast loop live in ``Processor.run``.
* :mod:`.recovery` — misprediction recovery: reconvergent-point
  lookup, selective/full squash, rename-map reconstruction, the
  redispatch walk with re-prediction, and context pruning/preemption.
* :mod:`.retire` — in-order commit with golden-trace co-simulation,
  predictor training, and commit-time sequence repair.

Checks and test faults attach through one seam,
``Processor.add_cycle_hook``: a hook reads or corrupts the machine
state at the end of a cycle, so it does not depend on which module
defines a method.  The stage-cycle counters live where their stages do.
"""

from .sequencer import SequencerStage, _Context
from .backend import BackendStage
from .recovery import RecoveryStage
from .retire import RetireStage

__all__ = [
    "BackendStage",
    "RecoveryStage",
    "RetireStage",
    "SequencerStage",
    "_Context",
]
