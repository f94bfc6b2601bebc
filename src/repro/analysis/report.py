"""Source-level diagnostics and the shared JSON report serializer.

The workload lint's :class:`~repro.analysis.diagnostics.Diagnostic` is
keyed by program counter; the simulator-source determinism lint
(:mod:`repro.analysis.sourcelint`) finds problems in *Python source*,
so its findings are keyed by file, line and symbol instead.  Both kinds
follow the same protocol — ``rule``, ``severity``, ``describe()`` — so
:class:`~repro.analysis.diagnostics.LintReport` and
:func:`~repro.analysis.diagnostics.apply_suppressions` work unchanged
over either, and both CLIs (``examples/lint_workloads.py`` and
``examples/staticcheck.py``) serialize through the one
:func:`report_to_dict` below, keeping CI artifacts diffable across
tools.

Suppressions here match on ``rule`` plus *symbol* (``Class.field`` or
``module.function``), never on line numbers: source findings move with
every edit, symbols only when the code they name changes — a stale
symbol is exactly the signal that a suppression needs re-review, and
:func:`stale_suppressions` surfaces it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import LintReport, Severity, Suppression


@dataclass(frozen=True)
class SourceDiagnostic:
    """One finding over the simulator's own source.

    ``symbol`` is the dotted name the finding is about (``InstrPool.order``,
    ``backend._broadcast``) and is what suppressions match on; ``file``
    and ``line`` locate it for the human reading the report.
    """

    rule: str
    severity: Severity
    file: str  # repo-relative path
    line: int
    symbol: str
    message: str

    def describe(self) -> str:
        return (
            f"{self.severity}[{self.rule}] {self.file}:{self.line} "
            f"({self.symbol}): {self.message}"
        )


@dataclass(frozen=True)
class SourceSuppression:
    """An acknowledged source finding with a recorded reason.

    Matches by rule name, optionally narrowed to specific symbols.  One
    suppression may cover several symbols when they share one reason —
    the reason is the audit trail, exactly as in the workload lint's
    :class:`~repro.analysis.diagnostics.Suppression`.
    """

    rule: str
    reason: str
    symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise ValueError(
                f"suppression of rule {self.rule!r} needs a non-empty reason"
            )

    def matches(self, diag) -> bool:
        if diag.rule != self.rule:
            return False
        if self.symbols and getattr(diag, "symbol", None) not in self.symbols:
            return False
        return True


def stale_suppressions(
    reports: list[LintReport], suppressions: tuple[SourceSuppression, ...]
) -> list[SourceSuppression]:
    """Suppressions that matched nothing across ``reports``.

    A suppression whose rule+symbols no longer fire is stale: either the
    finding was fixed (delete the suppression) or the symbol it names was
    renamed (re-review).  Strict runs fail on stale entries so the
    audit trail can never silently rot.
    """
    used: set[int] = set()
    for report in reports:
        for _diag, supp in report.suppressed:
            used.add(id(supp))
    return [s for s in suppressions if id(s) not in used]


# ----------------------------------------------------------------------
# shared JSON serialization (one schema for both lint CLIs)

#: bump on any incompatible change to the report JSON schema
REPORT_SCHEMA_VERSION = 1


def _diagnostic_to_dict(diag) -> dict:
    """Serialize either diagnostic kind to one flat, sortable dict."""
    out = {
        "rule": diag.rule,
        "severity": str(diag.severity),
        "message": diag.message,
    }
    if isinstance(diag, SourceDiagnostic):
        out["file"] = diag.file
        out["line"] = diag.line
        out["symbol"] = diag.symbol
    else:  # pc-keyed workload Diagnostic
        out["pc"] = diag.pc
        out["pc_end"] = diag.pc_end
        if diag.register is not None:
            out["register"] = diag.register
    return out


def _suppression_to_dict(supp) -> dict:
    out = {"rule": supp.rule, "reason": supp.reason}
    if isinstance(supp, SourceSuppression):
        if supp.symbols:
            out["symbols"] = sorted(supp.symbols)
    elif isinstance(supp, Suppression):
        if supp.registers:
            out["registers"] = sorted(supp.registers)
        if supp.pcs:
            out["pcs"] = sorted(supp.pcs)
    return out


def report_to_dict(report: LintReport) -> dict:
    """One lint report (either diagnostic kind) as plain JSON data."""
    return {
        "name": report.program_name,
        "errors": len(report.errors()),
        "warnings": len(report.warnings()),
        "diagnostics": [_diagnostic_to_dict(d) for d in report.diagnostics],
        "suppressed": [
            {"diagnostic": _diagnostic_to_dict(d), "suppression": _suppression_to_dict(s)}
            for d, s in report.suppressed
        ],
    }


def reports_to_dict(reports: list[LintReport], tool: str, **extra) -> dict:
    """Top-level report document shared by both lint CLIs."""
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "tool": tool,
        "clean": all(r.clean for r in reports),
        "reports": [report_to_dict(r) for r in reports],
    }
    doc.update(extra)
    return doc


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "SourceDiagnostic",
    "SourceSuppression",
    "report_to_dict",
    "reports_to_dict",
    "stale_suppressions",
]
