"""Structured lint diagnostics: severity, pc range, rule, suppression.

The workload lint (:mod:`repro.analysis.lint`) emits :class:`Diagnostic`
records instead of raising on the first problem, so a single pass over a
program reports everything it finds.  Intentional findings — synthetic
kernels deliberately contain wrong-path filler work and architectural-
zero reads — are acknowledged with :class:`Suppression` entries carrying
a recorded reason, mirroring how production linters annotate accepted
findings rather than silencing the rule globally.  A suppression that
matches nothing is stale (:func:`stale_suppressions`), and tier-1 fails
on one, so the audit trail tracks the code it excuses.

:class:`LintReport`, :func:`apply_suppressions` and
:func:`stale_suppressions` only rely on each finding's ``rule``,
``severity`` and ``describe()`` and each suppression's ``matches()``,
so they serve the source determinism lint
(:mod:`repro.analysis.sourcelint`) unchanged.

Escalation into the structured error taxonomy happens at the edges:
:func:`repro.analysis.check_program` raises
:class:`repro.errors.LintFailure` when unsuppressed error-severity
diagnostics remain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # render as "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding over a static program.

    ``pc`` is the anchor instruction; ``pc_end`` makes the record a
    half-open range ``[pc, pc_end)`` for region findings (unreachable
    blocks, loops).  ``register`` is set for register-keyed rules
    (use-before-def, dead-write) and is what suppressions match on.
    """

    rule: str
    severity: Severity
    pc: int
    message: str
    pc_end: int = -1  # defaults to pc + 1 (see __post_init__)
    register: int | None = None

    def __post_init__(self) -> None:
        if self.pc_end < 0:
            object.__setattr__(self, "pc_end", self.pc + 1)

    def describe(self) -> str:
        where = (
            f"pc {self.pc}"
            if self.pc_end == self.pc + 1
            else f"pc {self.pc}..{self.pc_end - 1}"
        )
        return f"{self.severity}[{self.rule}] {where}: {self.message}"


@dataclass(frozen=True)
class Suppression:
    """An acknowledged diagnostic with a recorded reason.

    Matches diagnostics by rule name, optionally narrowed to specific
    registers and/or pcs.  A suppression without a reason is rejected at
    construction: the whole point is the audit trail.
    """

    rule: str
    reason: str
    registers: tuple[int, ...] = ()
    pcs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise ValueError(
                f"suppression of rule {self.rule!r} needs a non-empty reason"
            )

    def matches(self, diag: Diagnostic) -> bool:
        if diag.rule != self.rule:
            return False
        if self.registers and diag.register not in self.registers:
            return False
        if self.pcs and diag.pc not in self.pcs:
            return False
        return True


@dataclass
class LintReport:
    """Everything one lint pass found over one program."""

    program_name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: findings matched by a suppression, with the suppression that ate them
    suppressed: list[tuple[Diagnostic, Suppression]] = field(default_factory=list)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        """No unsuppressed findings of any severity."""
        return not self.diagnostics

    def format(self, show_suppressed: bool = False) -> str:
        lines = [
            f"{self.program_name}: {len(self.errors())} error(s), "
            f"{len(self.warnings())} warning(s), "
            f"{len(self.suppressed)} suppressed"
        ]
        for diag in self.diagnostics:
            lines.append(f"  {diag.describe()}")
        if show_suppressed:
            for diag, supp in self.suppressed:
                lines.append(f"  suppressed {diag.describe()}")
                lines.append(f"    reason: {supp.reason}")
        return "\n".join(lines)


def apply_suppressions(
    report: LintReport, suppressions: tuple[Suppression, ...]
) -> LintReport:
    """Partition a report's diagnostics against a suppression list."""
    kept: list[Diagnostic] = []
    for diag in report.diagnostics:
        supp = next((s for s in suppressions if s.matches(diag)), None)
        if supp is None:
            kept.append(diag)
        else:
            report.suppressed.append((diag, supp))
    report.diagnostics = kept
    return report


def stale_suppressions(reports: list[LintReport], suppressions: tuple) -> list:
    """Suppressions that matched nothing across ``reports``.

    A stale suppression means either the finding was fixed (delete the
    suppression) or what it names was renamed (re-review it).
    """
    used = {id(supp) for report in reports for _diag, supp in report.suppressed}
    return [s for s in suppressions if id(s) not in used]
