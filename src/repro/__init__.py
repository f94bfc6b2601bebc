"""repro — reproduction of "A Study of Control Independence in Superscalar
Processors" (Rotenberg, Jacobson & Smith, HPCA 1999).

Public surface:

* :mod:`repro.isa` — toy RISC ISA, assembler, shared instruction semantics
* :mod:`repro.functional` — architectural simulation and golden traces
* :mod:`repro.cfg` — post-dominator / reconvergence analysis
* :mod:`repro.bpred` — gshare, target prediction, TFR
* :mod:`repro.memsys` — cache timing models
* :mod:`repro.ideal` — the six idealized machine models (paper Sec. 2)
* :mod:`repro.core` — the detailed execution-driven CI processor (Sec. 3-4)
* :mod:`repro.workloads` — the five synthetic SPEC95-like kernels
* :mod:`repro.harness` — experiment runners for every table and figure
* :mod:`repro.errors` — structured error taxonomy + failure diagnostics
* :mod:`repro.robustness` — deterministic fault injection for the checkers
* :mod:`repro.analysis` — workload lint, reconvergence cross-check, and
  the runtime machine-invariant sanitizer (``REPRO_SANITIZE=1``)
"""

from . import (
    analysis,
    bpred,
    cfg,
    core,
    errors,
    functional,
    harness,
    ideal,
    isa,
    memsys,
    robustness,
    workloads,
)
from .errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "bpred",
    "cfg",
    "core",
    "errors",
    "functional",
    "harness",
    "ideal",
    "isa",
    "memsys",
    "robustness",
    "workloads",
    "ReproError",
    "__version__",
]
