"""Hazard & determinism lint over the simulator's own source.

Rules (rule id → severity):

* ``undeclared-attr`` (error) — a tracked-class method other than
  ``__init__`` assigns a ``self`` attribute that is in neither the
  family's ``__slots__`` nor its ``__init__``.  On slotted classes this
  is a latent ``AttributeError``; on the :class:`Processor` facade it
  silently grows the attribute surface the field-access atlas (and the
  columnar-pool object model) is built against.
* ``same-cycle-war`` (warning) — a field is read under pipeline phase
  *i* and written under a later phase *j* of the same cycle
  (``complete < retire < issue < sequencer``).  Every such field is a
  genuine cross-stage hazard: its per-cycle value depends on the phase
  ordering hard-coded in ``Processor.step()``, so reordering phases —
  or deferring the column writes — changes semantics.
  The expected hazards are suppressed with reasons; the suppression
  table doubles as the repo's documented hazard inventory.
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

Findings are :class:`~repro.analysis.report.SourceDiagnostic` records
in a standard :class:`~repro.analysis.diagnostics.LintReport`;
suppressions match on rule + symbol and must carry a reason.
"""

from __future__ import annotations

import ast

from ..diagnostics import LintReport, Severity, apply_suppressions
from ..report import SourceDiagnostic, SourceSuppression
from .atlas import PHASE_ORDER, attribute_phases
from .walker import RepoIndex, TRACKED_CLASSES, collect_accesses

#: packages (and top-level modules) whose code determines architectural
#: simulation results.  harness/fuzz/analysis/robustness/profiling are
#: tooling: they may time things and draw entropy freely.
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


def _in_semantic_scope(module: str) -> bool:
    top = module.split(".", 1)[0]
    return top in SEMANTIC_SCOPE


def _rel_file(index: RepoIndex, module: str) -> str:
    path = index.module_paths[module]
    try:  # repo-relative (root is <repo>/src/repro) keeps reports diffable
        return str(path.relative_to(index.root.parent.parent))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------
# undeclared-attr


def check_undeclared_attrs(index: RepoIndex, report: LintReport) -> None:
    for cls in TRACKED_CLASSES:
        declared = index.declared_fields(cls)
        if not declared:
            continue
        for method in index.methods_of_family(cls):
            if method.name == "__init__":
                continue
            for node in ast.walk(method.node):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                        and tgt.attr not in declared
                    ):
                        report.diagnostics.append(SourceDiagnostic(
                            rule="undeclared-attr",
                            severity=Severity.ERROR,
                            file=_rel_file(index, method.module),
                            line=tgt.lineno,
                            symbol=f"{cls}.{tgt.attr}",
                            message=(
                                f"{method.qualname} creates attribute "
                                f"{tgt.attr!r} outside __init__/__slots__; "
                                f"declare it so the attribute surface is "
                                f"complete after construction"
                            ),
                        ))


# ----------------------------------------------------------------------
# same-cycle-war (atlas-derived)


def check_same_cycle_hazards(index: RepoIndex, report: LintReport) -> None:
    """Fields read by an earlier phase and written by a later one.

    A pair (read phase i, write phase j) with ``order(j) > order(i)``
    means the value phase *i* consumed this cycle is overwritten later
    the same cycle — the classic write-after-read discipline the stage
    ordering encodes.  Constructor writes are excluded: ``__init__``
    initializes a *fresh* instance, which no earlier phase can have
    read, so node allocation at dispatch is not a hazard on the nodes
    the complete/retire phases walked.  Reported once per (class,
    field) with the offending phase pairs in the message.
    """
    accesses, methods = collect_accesses(index)
    method_phases = attribute_phases(methods)
    read_phases: dict[tuple[str, str], set[str]] = {}
    write_phases: dict[tuple[str, str], set[str]] = {}
    for acc in accesses:
        if not acc.module.startswith("core"):
            continue
        phases = {p for p in method_phases[acc.method] if p in PHASE_ORDER}
        if acc.kind in ("read", "mutate"):
            read_phases.setdefault((acc.cls, acc.attr), set()).update(phases)
        if acc.kind in ("write", "mutate"):
            if methods[acc.method].name == "__init__" and acc.cls == methods[acc.method].cls:
                continue  # fresh-instance initialization
            write_phases.setdefault((acc.cls, acc.attr), set()).update(phases)
    for cls in TRACKED_CLASSES:
        fields = sorted(
            name for c, name in set(read_phases) | set(write_phases) if c == cls
        )
        for name in fields:
            reads = read_phases.get((cls, name), set())
            writes = write_phases.get((cls, name), set())
            pairs = sorted(
                (r, w)
                for r in reads
                for w in writes
                if PHASE_ORDER[w] > PHASE_ORDER[r]
            )
            if not pairs:
                continue
            rendered = ", ".join(f"read@{r}/write@{w}" for r, w in pairs)
            info = next(
                m for m in index.family_members(cls)
                if name in m.slots or name in m.init_fields
            )
            report.diagnostics.append(SourceDiagnostic(
                rule="same-cycle-war",
                severity=Severity.WARNING,
                file=_rel_file(index, info.module),
                line=info.node.lineno if info.node is not None else 0,
                symbol=f"{cls}.{name}",
                message=(
                    f"cross-stage same-cycle hazard on {cls}.{name}: "
                    f"{rendered} — semantics depend on the phase order "
                    f"in Processor.step()"
                ),
            ))


# ----------------------------------------------------------------------
# nondeterminism rules


def check_nondet_imports(index: RepoIndex, report: LintReport) -> None:
    for module, tree in sorted(index.modules.items()):
        if not _in_semantic_scope(module):
            continue
        for node in ast.walk(tree):
            names: list[tuple[str, int]] = []
            if isinstance(node, ast.Import):
                names = [(alias.name.split(".")[0], node.lineno) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [(node.module.split(".")[0], node.lineno)]
            for name, line in names:
                if name in NONDET_MODULES:
                    report.diagnostics.append(SourceDiagnostic(
                        rule="nondet-import",
                        severity=Severity.ERROR,
                        file=_rel_file(index, module),
                        line=line,
                        symbol=f"{module}:{name}",
                        message=(
                            f"semantic module {module} imports {name!r}; "
                            f"simulation results must not depend on wall "
                            f"clock or unseeded entropy"
                        ),
                    ))


class _SetTracker(ast.NodeVisitor):
    """Per-module scan for direct iteration over set-typed values."""

    def __init__(self, index: RepoIndex, module: str, report: LintReport):
        self.index = index
        self.module = module
        self.report = report
        #: ``self.X`` fields initialised as sets, per enclosing class
        self.set_fields: dict[str, set[str]] = {}
        self.set_locals: set[str] = set()
        self._cls: str | None = None

    # -- typing helpers -------------------------------------------------

    @staticmethod
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
            return _SetTracker._is_set_expr(
                node.left, set_names, set_fields
            ) and _SetTracker._is_set_expr(node.right, set_names, set_fields)
        return False

    # -- visitors -------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev = self._cls
        self._cls = node.name
        fields: set[str] = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.Assign) and self._is_set_expr(
                            sub.value, set(), set()
                        ):
                            for tgt in sub.targets:
                                if (
                                    isinstance(tgt, ast.Attribute)
                                    and isinstance(tgt.value, ast.Name)
                                    and tgt.value.id == "self"
                                ):
                                    fields.add(tgt.attr)
        self.set_fields[node.name] = fields
        self.generic_visit(node)
        self._cls = prev

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scan_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scan_function(node)

    def _scan_function(self, func) -> None:
        set_fields = self.set_fields.get(self._cls or "", set())
        locals_: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_set_expr(
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
                if self._is_set_expr(it, locals_, set_fields):
                    owner = f"{self._cls}." if self._cls else ""
                    self.report.diagnostics.append(SourceDiagnostic(
                        rule="nondet-set-iteration",
                        severity=Severity.WARNING,
                        file=_rel_file(self.index, self.module),
                        line=it.lineno,
                        symbol=f"{self.module}:{owner}{func.name}",
                        message=(
                            f"{owner}{func.name} iterates directly over a "
                            f"set; if the order feeds a simulation decision "
                            f"this is nondeterministic across hash seeds — "
                            f"sort, or iterate an insertion-ordered dict"
                        ),
                    ))


def check_set_iteration(index: RepoIndex, report: LintReport) -> None:
    for module, tree in sorted(index.modules.items()):
        if not _in_semantic_scope(module):
            continue
        _SetTracker(index, module, report).visit(tree)


def _contains_id_call(node: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(node)
    )


def check_id_order(index: RepoIndex, report: LintReport) -> None:
    for module, tree in sorted(index.modules.items()):
        if not _in_semantic_scope(module):
            continue
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
                    file=_rel_file(index, module),
                    line=hit,
                    symbol=f"{module}:id-order",
                    message=(
                        "ordering by id() depends on allocation addresses "
                        "and is not reproducible across runs"
                    ),
                ))


# ----------------------------------------------------------------------
# entry point + the repo's acknowledged findings

#: Suppressions for findings that are *correct by construction*.  Each
#: same-cycle-war entry is a real, load-bearing hazard: the suppression
#: reason documents why the phase ordering makes it safe, and the set of
#: suppressed symbols is the repo's hazard inventory (rendered in
#: DESIGN.md).  A suppression that stops matching fails strict runs.
SOURCE_SUPPRESSIONS: tuple[SourceSuppression, ...] = (
    SourceSuppression(
        rule="nondet-import",
        reason=(
            "synthetic-workload generators draw from random.Random(<constant "
            "seed>) only; results are identical on every run and platform"
        ),
        symbols=("workloads.kernels:random",),
    ),
    # ------------------------------------------------------------------
    # The same-cycle hazard inventory.  Every entry below is a field a
    # later phase of the cycle writes after an earlier phase read it —
    # intended write-after-read discipline, not a bug: step() runs
    # complete < retire < issue < sequencer precisely so each phase
    # observes the previous cycle's value of anything a later phase
    # produces.  The per-instruction entries are now columns of the
    # preallocated InstrPool (a subscript store through the column — or
    # a hot-loop alias of it — is a write of that slot's cell); the
    # discipline is unchanged from the per-node object model it
    # replaced.  A new field acquiring this pattern fails --strict
    # until acknowledged here.  Grouped per class so staleness is
    # detected per class.
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "per-slot pipeline columns: issue writes execution results "
            "(value/addr/outcome) after complete consumed last cycle's; "
            "retire flips state bits after complete observed liveness; "
            "the sequencer phase runs last so dispatch/squash writes "
            "(order, tags, links, state bits, slot recycling via "
            "uid/ref) land for next cycle's readers — the one-cycle "
            "dispatch-to-issue latency the paper's pipeline model "
            "requires"
        ),
        symbols=(
            "InstrPool.addr",
            "InstrPool.current_next_pc",
            "InstrPool.current_taken",
            "InstrPool.dest_arch",
            "InstrPool.dest_tag",
            "InstrPool.dispatch_cycle",
            "InstrPool.fwd_store",
            "InstrPool.history_used",
            "InstrPool.instr",
            "InstrPool.issue_count",
            "InstrPool.next",
            "InstrPool.order",
            "InstrPool.outcome_next_pc",
            "InstrPool.outcome_taken",
            "InstrPool.pc",
            "InstrPool.predicted_next_pc",
            "InstrPool.prev",
            "InstrPool.prev_addr",
            "InstrPool.ras_snapshot",
            "InstrPool.ref",
            "InstrPool.segment",
            "InstrPool.src1_tag",
            "InstrPool.src2_tag",
            "InstrPool.state",
            "InstrPool.store_value",
            "InstrPool.uid",
            "InstrPool.value",
        ),
    ),
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "window bookkeeping: retire removes nodes and the sequencer "
            "allocates/squashes after complete and retire walked the "
            "window; occupancy counters and segment liveness "
            "intentionally reflect start-of-phase state to each earlier "
            "phase"
        ),
        symbols=(
            "ReorderBuffer.count",
            "ReorderBuffer.segments_allocated",
            "Segment.live",
        ),
    ),
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "facade caches and commit state: retire invalidates the "
            "rename-map memo (epoch bump), commits stores and advances "
            "retirement counters after complete read them; the sequencer "
            "phase rebuilds contexts/gates last — all consumed at their "
            "pre-write value by design within the cycle"
        ),
        symbols=(
            "Processor._incomplete_branches",
            "Processor._map_cache",
            "Processor._map_cache_epoch",
            "Processor._map_epoch",
            "Processor._oldest_gate",
            "Processor._oldest_gate_valid",
            "Processor.committed_mem",
            "Processor.contexts",
            "Processor.lsq",
            "Processor.retired_count",
            "Processor.retired_map",
            "Processor.rob",
        ),
    ),
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "LSQ entry dicts: retire/sequencer remove or insert entries "
            "after the complete phase's disambiguation walk consumed the "
            "pre-update view — store-to-load visibility is next-cycle by "
            "construction"
        ),
        symbols=(
            "LoadStoreQueue._loads",
            "LoadStoreQueue._stores",
            "LoadStoreQueue._unresolved_stores",
        ),
    ),
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "branch-gate event counters: retire and the sequencer bump "
            "them (squashed oldest branch, dropped unresolved store) "
            "after the complete phase compared them; the change is seen "
            "by the next cycle's complete phase, which is the first "
            "point a pending branch could be retried anyway"
        ),
        symbols=(
            "LoadStoreQueue.unresolved_shrinks",
            "Processor._oldest_gate_events",
        ),
    ),
    SourceSuppression(
        rule="same-cycle-war",
        reason=(
            "fetch-context state: the sequencer phase owns context "
            "mutation and runs last; complete/retire only inspect "
            "contexts for recovery and repair, observing the pre-fetch "
            "view of the cycle"
        ),
        symbols=(
            "_Context.fetch_pc",
            "_Context.ghr",
            "_Context.insert_point",
            "_Context.phase",
            "_Context.reconv",
            "_Context.stalled",
            "_Context.walk_cursor",
        ),
    ),
)


def lint_source(
    index: RepoIndex | None = None,
    suppressions: tuple[SourceSuppression, ...] = SOURCE_SUPPRESSIONS,
) -> LintReport:
    """Run every source rule; return one suppression-applied report."""
    if index is None:
        from . import source_root

        index = RepoIndex(source_root())
    report = LintReport(program_name="src/repro")
    check_undeclared_attrs(index, report)
    check_same_cycle_hazards(index, report)
    check_nondet_imports(index, report)
    check_set_iteration(index, report)
    check_id_order(index, report)
    report.diagnostics.sort(key=lambda d: (d.file, d.line, d.rule, d.symbol))
    return apply_suppressions(report, suppressions)


__all__ = [
    "NONDET_MODULES",
    "SEMANTIC_SCOPE",
    "SOURCE_SUPPRESSIONS",
    "check_id_order",
    "check_nondet_imports",
    "check_same_cycle_hazards",
    "check_set_iteration",
    "check_undeclared_attrs",
    "lint_source",
]
