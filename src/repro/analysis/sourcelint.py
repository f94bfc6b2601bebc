"""Determinism lint over the simulator's own source.

A user's results must not depend on how the run was executed: fresh or
resumed, serial or pooled, under any hash seed or allocator.  These
rules flag the source patterns that would break that.

Rules (rule id → severity):

* ``undeclared-attr`` (error) — a method of a tracked model class
  (:data:`TRACKED_CLASSES`) other than ``__init__`` stores a ``self``
  attribute that is in neither the class's ``__slots__`` nor a
  ``self.X`` store in its ``__init__``.  On slotted classes this is a
  latent ``AttributeError``; elsewhere it is state whose existence
  depends on which paths a run took.  The rule runs over the live
  classes: each class and the bases it inherits from its own package
  (``Processor``'s stage mixins) are parsed from
  :func:`inspect.getsource`.
* ``nondet-import`` (error) — a semantic module (one the simulation's
  architectural results flow through) imports a wall-clock or entropy
  source (``random``, ``time``, ``secrets``, ``uuid``).  Seeded PRNG
  use is deterministic and gets a reasoned suppression; anything else
  is a reproducibility bug.
* ``nondet-set-iteration`` (warning) — a semantic module iterates
  directly over a set (``for`` loop, list/tuple materialization, or
  list comprehension source) where the order can feed simulation
  decisions.  Membership tests, ``len``/``min``/``max``/``sorted`` and
  other order-insensitive consumers are not flagged.
* ``nondet-id-order`` (warning) — a semantic module orders by object
  identity: ``id(...)`` inside a sort key or compared with ``<``-style
  operators.  ``id()`` as a dict key for identity-membership is fine
  and not flagged.

The three ``nondet-*`` rules scan every ``*.py`` file under a package
root (``src/repro`` by default).  Findings are :class:`SourceDiagnostic`
records in a standard :class:`~repro.analysis.diagnostics.LintReport`.
Suppressions (:class:`SourceSuppression`) match on rule + symbol
(``Class.field``, ``module:function``), never on line numbers, and must
carry a reason: line numbers move with every edit, symbols only when
the code they name changes.  The tier-1 tests in
``tests.test_staticcheck`` are the gate: they fail on any unsuppressed
finding of either severity and on any stale suppression.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from pathlib import Path

from ..core.lsq import LoadStoreQueue
from ..core.processor import Processor
from ..core.regfile import PhysReg
from ..core.rob import ReorderBuffer, Segment
from ..core.soa import CompletionWheel, InstrPool
from ..core.stages.sequencer import _Context
from .diagnostics import LintReport, Severity, apply_suppressions


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


#: the ``src/repro`` package root the lint scans by default
SOURCE_ROOT = Path(__file__).resolve().parents[1]

#: the detailed core's model classes, whose attribute surface must be
#: complete after construction
TRACKED_CLASSES = (
    CompletionWheel,
    InstrPool,
    LoadStoreQueue,
    PhysReg,
    Processor,
    ReorderBuffer,
    Segment,
    _Context,
)

#: packages (and top-level modules) whose code determines architectural
#: simulation results.  harness/fuzz/analysis are tooling:
#: they may time things and draw entropy freely.
SEMANTIC_SCOPE = (
    "bpred",
    "cfg",
    "core",
    "functional",
    "ideal",
    "isa",
    "machines",
    "memsys",
    "workloads",
)

#: module imports that make simulation results time- or entropy-dependent
NONDET_MODULES = frozenset(("random", "time", "secrets", "uuid"))

#: Suppressions for findings that are correct by construction.  A
#: suppression that stops matching fails tier-1.
SOURCE_SUPPRESSIONS: tuple[SourceSuppression, ...] = (
    SourceSuppression(
        rule="nondet-import",
        reason=(
            "synthetic-workload generators draw from random.Random(<constant "
            "seed>) only; results are identical on every run and platform"
        ),
        symbols=("workloads.kernels:random",),
    ),
)


def _rel_file(path: Path, root: Path) -> str:
    try:  # repo-relative (root is <repo>/src/repro) keeps reports diffable
        return str(path.relative_to(root.parent.parent))
    except ValueError:
        return str(path)


def _semantic_modules(root: Path) -> dict[str, tuple[str, ast.Module]]:
    """Dotted module name (relative to ``root``) -> (file, AST), for the
    modules under ``root`` that are in :data:`SEMANTIC_SCOPE`."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[0] not in SEMANTIC_SCOPE:
            continue
        if parts[-1] == "__init__":
            parts.pop()
        tree = ast.parse(path.read_text(), filename=str(path))
        modules[".".join(parts)] = (_rel_file(path, root), tree)
    return modules


def _self_stores(node: ast.AST):
    """Every ``self.X`` store target under ``node``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            yield sub


# ----------------------------------------------------------------------
# undeclared-attr


def check_undeclared_attrs(classes, report: LintReport) -> None:
    for cls in classes:
        package = cls.__module__.split(".", 1)[0]
        members = [
            c for c in cls.__mro__ if c.__module__.split(".", 1)[0] == package
        ]
        declared: set[str] = set()
        methods = []
        for member in members:
            slots = member.__dict__.get("__slots__", ())
            declared.update((slots,) if isinstance(slots, str) else slots)
            lines, start = inspect.getsourcelines(member)
            (node,) = ast.parse(textwrap.dedent("".join(lines))).body
            ast.increment_lineno(node, start - 1)
            file = _rel_file(Path(inspect.getsourcefile(member)), SOURCE_ROOT)
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    declared.update(t.attr for t in _self_stores(item))
                else:
                    methods.append((file, member, item))
        for file, member, method in methods:
            for tgt in _self_stores(method):
                if tgt.attr in declared:
                    continue
                report.diagnostics.append(SourceDiagnostic(
                    rule="undeclared-attr",
                    severity=Severity.ERROR,
                    file=file,
                    line=tgt.lineno,
                    symbol=f"{cls.__name__}.{tgt.attr}",
                    message=(
                        f"{member.__name__}.{method.name} creates attribute "
                        f"{tgt.attr!r} outside __init__/__slots__; "
                        f"declare it so the attribute surface is "
                        f"complete after construction"
                    ),
                ))


# ----------------------------------------------------------------------
# nondeterminism rules


def check_nondet_imports(modules, report: LintReport) -> None:
    for module, (file, tree) in modules.items():
        for node in ast.walk(tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module.split(".")[0]]
            for name in names:
                if name in NONDET_MODULES:
                    report.diagnostics.append(SourceDiagnostic(
                        rule="nondet-import",
                        severity=Severity.ERROR,
                        file=file,
                        line=node.lineno,
                        symbol=f"{module}:{name}",
                        message=(
                            f"semantic module {module} imports {name!r}; "
                            f"simulation results must not depend on wall "
                            f"clock or unseeded entropy"
                        ),
                    ))


def _is_set_expr(node: ast.expr, set_names: set[str], set_fields: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in set_fields
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra keeps set-ness; integer arithmetic on names we
        # don't track never reaches here (operands must qualify).
        return _is_set_expr(node.left, set_names, set_fields) and _is_set_expr(
            node.right, set_names, set_fields
        )
    return False


class _SetTracker(ast.NodeVisitor):
    """Per-module scan for direct iteration over set-typed values."""

    def __init__(self, module: str, file: str, report: LintReport):
        self.module = module
        self.file = file
        self.report = report
        #: ``self.X`` fields initialised as sets, per enclosing class
        self.set_fields: dict[str, set[str]] = {}
        self._cls: str | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev = self._cls
        self._cls = node.name
        self.set_fields[node.name] = {
            tgt.attr
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for sub in ast.walk(item)
            if isinstance(sub, ast.Assign) and _is_set_expr(sub.value, set(), set())
            for tgt in _self_stores(sub)
        }
        self.generic_visit(node)
        self._cls = prev

    def visit_FunctionDef(self, func) -> None:
        set_fields = self.set_fields.get(self._cls or "", set())
        locals_: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _is_set_expr(
                node.value, locals_, set_fields
            ):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        locals_.add(tgt.id)
        for node in ast.walk(func):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, ast.ListComp):
                iters.append(node.generators[0].iter)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(it, locals_, set_fields):
                    owner = f"{self._cls}." if self._cls else ""
                    self.report.diagnostics.append(SourceDiagnostic(
                        rule="nondet-set-iteration",
                        severity=Severity.WARNING,
                        file=self.file,
                        line=it.lineno,
                        symbol=f"{self.module}:{owner}{func.name}",
                        message=(
                            f"{owner}{func.name} iterates directly over a "
                            f"set; if the order feeds a simulation decision "
                            f"this is nondeterministic across hash seeds — "
                            f"sort, or iterate an insertion-ordered dict"
                        ),
                    ))

    visit_AsyncFunctionDef = visit_FunctionDef


def check_set_iteration(modules, report: LintReport) -> None:
    for module, (file, tree) in modules.items():
        _SetTracker(module, file, report).visit(tree)


def _contains_id_call(node: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(node)
    )


def check_id_order(modules, report: LintReport) -> None:
    for module, (file, tree) in modules.items():
        for node in ast.walk(tree):
            hit: int | None = None
            if isinstance(node, ast.Call):
                name = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None)
                )
                if name in ("sorted", "sort", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg == "key" and _contains_id_call(kw.value):
                            hit = node.lineno
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                if _contains_id_call(node.left) or any(
                    _contains_id_call(c) for c in node.comparators
                ):
                    hit = node.lineno
            if hit is not None:
                report.diagnostics.append(SourceDiagnostic(
                    rule="nondet-id-order",
                    severity=Severity.WARNING,
                    file=file,
                    line=hit,
                    symbol=f"{module}:id-order",
                    message=(
                        "ordering by id() depends on allocation addresses "
                        "and is not reproducible across runs"
                    ),
                ))


# ----------------------------------------------------------------------
# entry point


def lint_source(
    root: Path = SOURCE_ROOT,
    classes=TRACKED_CLASSES,
    suppressions: tuple[SourceSuppression, ...] = SOURCE_SUPPRESSIONS,
) -> LintReport:
    """Run every rule over ``classes`` and the modules under ``root``;
    return one suppression-applied report."""
    report = LintReport(program_name="src/repro")
    modules = _semantic_modules(Path(root))
    check_undeclared_attrs(classes, report)
    check_nondet_imports(modules, report)
    check_set_iteration(modules, report)
    check_id_order(modules, report)
    report.diagnostics.sort(key=lambda d: (d.file, d.line, d.rule, d.symbol))
    return apply_suppressions(report, suppressions)


__all__ = [
    "NONDET_MODULES",
    "SEMANTIC_SCOPE",
    "SOURCE_SUPPRESSIONS",
    "TRACKED_CLASSES",
    "SourceDiagnostic",
    "SourceSuppression",
    "lint_source",
]
