"""Robustness tooling: deterministic fault injection for the checkers.

A correctness checker that no fault has ever tripped is untested.  This
package corrupts live simulator state on purpose — predictor-derived
path state, reconvergence-table entries, register values, wakeup events,
and the structural state views (ROB links, rename map, broadcast
network, LSQ subsets) — to prove the retirement co-simulation
checker, the forward-progress watchdog and the machine-invariant
sanitizer (``REPRO_SANITIZE=1``) actually detect each divergence class.
"""

from .faultinject import (
    DroppedWakeupFault,
    FaultInjector,
    LSQDropFault,
    PredictorStateFault,
    ROBOrderFault,
    ReconvTableFault,
    RegisterValueFault,
    RenameMapFault,
    TagAliasFault,
    run_with_fault,
)

__all__ = [
    "DroppedWakeupFault",
    "FaultInjector",
    "LSQDropFault",
    "PredictorStateFault",
    "ROBOrderFault",
    "ReconvTableFault",
    "RegisterValueFault",
    "RenameMapFault",
    "TagAliasFault",
    "run_with_fault",
]
