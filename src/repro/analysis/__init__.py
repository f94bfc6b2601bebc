"""Static analysis layer: workload lint, reconvergence cross-check, and
the runtime machine-invariant sanitizer.

* :func:`lint_program` / :func:`check_program` — dataflow-based lint of
  assembled programs (use-before-def, dead writes, unreachable code,
  loop-termination checks) with structured diagnostics and audited
  suppressions.
* :func:`reconvergence_report_row` / :func:`score_heuristic` — static
  precision/recall of hardware reconvergence heuristics against the
  exact post-dominator table.
* :class:`MachineSanitizer` — cross-checks the detailed core's
  redundant state views every N cycles (``REPRO_SANITIZE=1``).
* :mod:`.sourcelint` — determinism lint over the simulator's own
  source (undeclared attributes, wall-clock/entropy imports, set
  iteration, ``id()`` ordering).

Both lints are gated by tier-1 tests alone (``TestKernelLint`` in
``tests.test_analysis`` and ``tests.test_staticcheck``): any
unsuppressed finding of either severity, or a suppression that matches
nothing (:func:`stale_suppressions`), fails the suite.
``examples/lint_workloads.py`` prints the workload lint report and the
heuristic-vs-exact reconvergence table for a human reader.
"""

from .dataflow import (
    EXTERNAL,
    UNINIT,
    dead_writes,
    instruction_uses_of_undefined,
    liveness,
    reaching_definitions,
)
from .diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    Suppression,
    apply_suppressions,
    stale_suppressions,
)
from .invariants import check_core_stats, check_ideal_result, check_stats
from .lint import check_program, lint_program
from .reconv_check import (
    HEURISTICS,
    HeuristicScore,
    heuristic_candidates,
    reconvergence_report_row,
    score_heuristic,
)
from .sanitizer import STRUCTURES, MachineSanitizer

__all__ = [
    "EXTERNAL",
    "HEURISTICS",
    "STRUCTURES",
    "UNINIT",
    "Diagnostic",
    "HeuristicScore",
    "LintReport",
    "MachineSanitizer",
    "Severity",
    "Suppression",
    "apply_suppressions",
    "check_core_stats",
    "check_ideal_result",
    "check_program",
    "check_stats",
    "dead_writes",
    "heuristic_candidates",
    "instruction_uses_of_undefined",
    "lint_program",
    "liveness",
    "reaching_definitions",
    "reconvergence_report_row",
    "score_heuristic",
    "stale_suppressions",
]
