"""Structured error taxonomy and failure diagnostics for the reproduction.

Everything the simulator, harness and workloads can raise derives from
:class:`ReproError`, so callers can catch one type and still distinguish
failure classes:

* :class:`ConfigError` — a :class:`~repro.core.CoreConfig` (or other
  knob set) is internally inconsistent; rejected *before* simulation.
* :class:`WorkloadError` — a workload/assembler input is invalid
  (unknown name, bad scale, assembly syntax error).
* :class:`ExecutionLimitExceeded` — architectural execution ran past
  its dynamic-instruction budget (a golden trace is never silently
  truncated).
* :class:`SimulationHang` — a cycle-level simulator stopped making
  forward progress (detailed-core watchdog livelock) or exceeded its
  cycle budget (detailed core or ideal scheduler).
* :class:`CosimulationError` — retired state diverged from the
  architectural golden trace: a simulator bug, never a statistic.
* :class:`HarnessError` / :class:`CellTimeout` / :class:`CheckpointError`
  — failures of the fault-isolated experiment runner itself.
* :class:`TransientError` — marker for failures worth retrying (the
  cell runner retries these and timeouts, with a doubling backoff;
  everything else degrades at once).
* :class:`AnalysisError` / :class:`LintFailure` — the static-analysis
  layer (``repro.analysis``) rejected a workload program.
* :class:`SanitizerError` — a machine-invariant check found a corrupted
  internal structure mid-simulation (``REPRO_SANITIZE=1``).

Simulator failures carry a :class:`MachineSnapshot` of the machine state
at the moment of death, rendered into the exception message, so a failed
cell in a long study is diagnosable from its error string alone.

``ConfigError`` and ``WorkloadError`` also subclass :class:`ValueError`,
and ``ReproError`` subclasses :class:`RuntimeError`, so pre-existing
``except ValueError`` / ``except RuntimeError`` call sites keep working.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(RuntimeError):
    """Base class for every error raised by the reproduction."""


class ConfigError(ReproError, ValueError):
    """A configuration is internally inconsistent (rejected up front)."""


class WorkloadError(ReproError, ValueError):
    """A workload or assembler input is invalid."""


class ExecutionLimitExceeded(ReproError):
    """Architectural execution ran past the dynamic-instruction budget."""


class HarnessError(ReproError):
    """The fault-isolated experiment runner failed."""


class CellTimeout(HarnessError):
    """One experiment cell exceeded its wall-clock budget."""


class CheckpointError(HarnessError):
    """A checkpoint store could not be read or written."""


class CacheError(HarnessError):
    """The artifact cache is misconfigured (unusable directory, bad size).

    Corrupt or unreadable on-disk entries are *not* errors — the cache
    treats them as misses and recomputes — so this is only raised for
    configuration problems the user must fix.
    """


class TransientError(ReproError):
    """A failure expected to succeed on retry (runner retries these)."""


class AnalysisError(ReproError):
    """Base class for static-analysis (``repro.analysis``) failures."""


class LintFailure(AnalysisError, ValueError):
    """A linted program carries unsuppressed error-severity diagnostics.

    Raised by :func:`repro.analysis.check_program`; ``diagnostics``
    holds the offending :class:`repro.analysis.Diagnostic` records so
    callers can render or filter them without re-running the lint.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


@dataclass(frozen=True)
class MachineSnapshot:
    """Machine state at the moment a simulation died.

    Captured by ``Processor.snapshot()`` and rendered into
    :class:`SimulationHang` / :class:`CosimulationError` messages so a
    failure in a long sweep is diagnosable without re-running it.
    """

    cycle: int
    fetch_pc: int
    rob_occupancy: int
    window_size: int
    active_contexts: int
    context_phases: tuple[str, ...]
    retired: int
    golden_length: int
    head_pc: int | None
    head_status: str
    incomplete_branches: int
    #: PC of the last instruction that actually retired (None = none yet);
    #: a fuzz-found livelock is triaged by where progress stopped, which
    #: the retirement *count* alone cannot say.
    last_retired_pc: int | None = None
    #: cycles the oldest ROB entry has sat in the window (None = empty);
    #: distinguishes "head wedged for 50k cycles" from churn livelocks
    #: where the head keeps changing but nothing retires.
    oldest_rob_age: int | None = None

    @property
    def last_retired_seq(self) -> int:
        """Golden-trace index of the last retired instruction (-1 = none)."""
        return self.retired - 1

    def describe(self) -> str:
        contexts = (
            f"{self.active_contexts} ({','.join(self.context_phases)})"
            if self.context_phases
            else "0"
        )
        head = (
            f"pc {self.head_pc} [{self.head_status}]"
            if self.head_pc is not None
            else "empty"
        )
        last_pc = "none" if self.last_retired_pc is None else str(self.last_retired_pc)
        age = "" if self.oldest_rob_age is None else f" head_age={self.oldest_rob_age}"
        return (
            f"machine state: cycle={self.cycle}"
            f" retired={self.retired}/{self.golden_length}"
            f" (last seq {self.last_retired_seq}, last pc {last_pc})"
            f" fetch_pc={self.fetch_pc}"
            f" rob={self.rob_occupancy}/{self.window_size}"
            f" contexts={contexts}"
            f" head={head}{age}"
            f" incomplete_branches={self.incomplete_branches}"
        )


class DiagnosedError(ReproError):
    """A simulator error carrying an optional machine-state snapshot."""

    def __init__(self, message: str, snapshot: MachineSnapshot | None = None):
        self.snapshot = snapshot
        if snapshot is not None:
            message = f"{message}\n  {snapshot.describe()}"
        super().__init__(message)


class SimulationHang(DiagnosedError):
    """A cycle-level simulator stopped retiring instructions in time.

    ``kind`` distinguishes the detailed core's forward-progress watchdog
    trip (``"livelock"``: no retirement for ``watchdog_cycles`` cycles)
    from the blunt overall cycle budget (``"cycle-limit"``), which both
    the detailed core and the ideal scheduler enforce.  The ideal
    scheduler raises it without a :class:`MachineSnapshot`.
    """

    def __init__(
        self,
        message: str,
        snapshot: MachineSnapshot | None = None,
        kind: str = "livelock",
    ):
        self.kind = kind
        super().__init__(message, snapshot)


class CosimulationError(DiagnosedError):
    """Retired state diverged from the architectural golden trace."""


class PoolExhausted(ReproError):
    """A preallocated instruction pool ran out of free slots.

    The columnar :class:`~repro.core.soa.InstrPool` is sized to the
    window plus its two sentinel slots, and every dispatch is gated by
    the window-capacity check, so this firing inside the simulator means
    slot recycling broke (a retire/squash that never freed its slot) —
    it is a structural bug report, not a resource limit.  ``capacity``
    and ``live`` describe the pool at the moment of exhaustion.
    """

    def __init__(self, message: str, capacity: int, live: int):
        self.capacity = capacity
        self.live = live
        super().__init__(f"{message} (capacity={capacity}, live={live})")


class SanitizerError(DiagnosedError):
    """A machine-invariant check failed: an internal simulator structure
    (ROB links, rename map, broadcast network, LSQ) is
    corrupt.  ``structure`` names the faulted structure so a failure is
    localized to the subsystem that broke, instead of surfacing cycles
    later as a statistic drift or an unrelated cosimulation mismatch.
    """

    def __init__(
        self,
        message: str,
        structure: str,
        snapshot: MachineSnapshot | None = None,
    ):
        self.structure = structure
        super().__init__(f"sanitizer[{structure}]: {message}", snapshot)


__all__ = [
    "AnalysisError",
    "CacheError",
    "CellTimeout",
    "CheckpointError",
    "ConfigError",
    "CosimulationError",
    "DiagnosedError",
    "ExecutionLimitExceeded",
    "HarnessError",
    "LintFailure",
    "MachineSnapshot",
    "PoolExhausted",
    "ReproError",
    "SanitizerError",
    "SimulationHang",
    "TransientError",
    "WorkloadError",
]
