"""Static checks of the ready-heap sites against the arbitration spec.

Holds the code to :data:`repro.analysis.arbitration.CONTRACT` without
running it:

* every ``heappush``/``heappop`` on the ``_ready`` heap — through any
  of the repo's idioms (``heapq.heappush(...)``, a ``from heapq``
  import, or a bound local like ``pop = heapq.heappop``) and through
  heap aliases (``ready = self._ready``) — must occur at a declared
  site, and every declared site must exist;
* every push must build the declared key: a 4-tuple whose middle
  components are the pool's ``order`` and ``uid`` columns subscripted
  by the handle riding in the payload slot (directly as
  ``pool.order[h]`` or through a local alias ``orders = pool.order``);
* the ROB's placement routine must reach the declared rewrite
  routine (its gap-exhaustion fallback).

All findings use rule ``arbitration-contract`` at error severity —
an arbitration drift is never just a warning.
"""

from __future__ import annotations

import ast

from ..arbitration import CONTRACT, ArbitrationContract
from ..diagnostics import LintReport, Severity
from ..report import SourceDiagnostic
from .walker import RepoIndex

_RULE = "arbitration-contract"


def _diag(report: LintReport, file: str, line: int, symbol: str, message: str) -> None:
    report.diagnostics.append(SourceDiagnostic(
        rule=_RULE,
        severity=Severity.ERROR,
        file=file,
        line=line,
        symbol=symbol,
        message=message,
    ))


# ----------------------------------------------------------------------
# heap-site discovery


class _HeapSiteFinder(ast.NodeVisitor):
    """Find push/pop/peek operations on the contract heap in one function."""

    def __init__(self, heap_attr: str):
        self.heap_attr = heap_attr
        self.heap_locals: set[str] = set()
        self.op_aliases: dict[str, str] = {}  # local name -> "push"|"pop"
        #: local aliases of the pool's key columns: name -> "order"|"uid"
        #: (from ``orders = pool.order`` / ``uids = pool.uid`` bindings)
        self.col_aliases: dict[str, str] = {}
        #: discovered (op, call-node) pairs
        self.sites: list[tuple[str, ast.Call]] = []

    def _is_heap(self, node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Attribute)
            and node.attr == self.heap_attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
        return isinstance(node, ast.Name) and node.id in self.heap_locals

    @staticmethod
    def _heapq_op(func: ast.expr) -> str | None:
        name = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "heapq":
                name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name == "heappush":
            return "push"
        if name == "heappop":
            return "pop"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        op = self._heapq_op(node.value) if isinstance(node.value, (ast.Attribute, ast.Name)) else None
        col = (
            node.value.attr
            if isinstance(node.value, ast.Attribute)
            and node.value.attr in ("order", "uid")
            else None
        )
        for tgt in node.targets:
            if not isinstance(tgt, ast.Name):
                continue
            if self._is_heap(node.value):
                self.heap_locals.add(tgt.id)
            elif op is not None:
                self.op_aliases[tgt.id] = op
            elif col is not None:
                self.col_aliases[tgt.id] = col
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        op = self._heapq_op(node.func)
        if op is None and isinstance(node.func, ast.Name):
            op = self.op_aliases.get(node.func.id)
        if op is not None and node.args and self._is_heap(node.args[0]):
            self.sites.append((op, node))
        self.generic_visit(node)


def _functions_of_core(index: RepoIndex):
    """Yield (module, qualname, function-node) for every function in the
    ``core`` package, including methods (qualified by class)."""
    for module, tree in sorted(index.modules.items()):
        if not module.startswith("core"):
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, stmt.name, stmt
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield module, item.name, item


def check_heap_sites(
    index: RepoIndex, report: LintReport, contract: ArbitrationContract = CONTRACT
) -> None:
    declared = {
        (site.module, site.function, site.op)
        for site in contract.push_sites + contract.pop_sites
    }
    found: set[tuple[str, str, str]] = set()
    for module, func_name, func in _functions_of_core(index):
        finder = _HeapSiteFinder(contract.heap_attr)
        finder.visit(func)
        file = _file_of(index, module)
        for op, call in finder.sites:
            key = (module, func_name, op)
            found.add(key)
            if key not in declared:
                _diag(
                    report, file, call.lineno, f"{module}.{func_name}",
                    f"undeclared ready-heap {op} site: the arbitration "
                    f"contract allows {op}s only at "
                    + ", ".join(
                        s.function for s in
                        (contract.push_sites if op == "push" else contract.pop_sites)
                    ),
                )
            if op == "push":
                _check_push_key(report, file, call, contract, finder.col_aliases)
    for module, function, op in sorted(declared - found):
        _diag(
            report, _file_of(index, module), 1, f"{module}.{function}",
            f"declared ready-heap {op} site {module}.{function} not found "
            f"in the source — update the contract or restore the site",
        )


def _column_subscript(
    el: ast.expr, column: str, col_aliases: dict[str, str]
) -> str | None:
    """If ``el`` is ``<pool>.{column}[<handle-name>]`` or
    ``<alias>[<handle-name>]`` where the alias binds that column, return
    the handle name; else None."""
    if not isinstance(el, ast.Subscript) or not isinstance(el.slice, ast.Name):
        return None
    value = el.value
    if isinstance(value, ast.Attribute) and value.attr == column:
        return el.slice.id
    if isinstance(value, ast.Name) and col_aliases.get(value.id) == column:
        return el.slice.id
    return None


def _check_push_key(
    report: LintReport,
    file: str,
    call: ast.Call,
    contract: ArbitrationContract,
    col_aliases: dict[str, str] | None = None,
) -> None:
    symbol = f"push@{call.lineno}"
    key = contract.key
    col_aliases = col_aliases or {}
    entry = call.args[1] if len(call.args) > 1 else None
    if not isinstance(entry, ast.Tuple) or len(entry.elts) != len(key.fields):
        _diag(
            report, file, call.lineno, symbol,
            f"ready-heap push must push a literal "
            f"({', '.join(key.fields)}) tuple",
        )
        return
    order_el, uid_el, handle_el = entry.elts[1], entry.elts[2], entry.elts[3]
    order_of = _column_subscript(order_el, "order", col_aliases)
    uid_of = _column_subscript(uid_el, "uid", col_aliases)
    ok = (
        isinstance(handle_el, ast.Name)
        and order_of is not None
        and uid_of is not None
        and order_of == uid_of == handle_el.id
    )
    if not ok:
        _diag(
            report, file, call.lineno, symbol,
            "push key must capture the pool's order[<handle>] and "
            "uid[<handle>] of the payload handle (tie-break key "
            "composition)",
        )


# ----------------------------------------------------------------------
# placement-routine discipline


def _names_referenced(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
    return out


def check_placement_routine(
    index: RepoIndex, report: LintReport, contract: ArbitrationContract = CONTRACT
) -> None:
    rob = index.classes.get("ReorderBuffer")
    if rob is None or rob.node is None:
        _diag(report, "src/repro/core/rob.py", 1, "ReorderBuffer",
              "ReorderBuffer class not found")
        return
    methods = {
        item.name: item
        for item in rob.node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    file = _file_of(index, rob.module)
    symbol = f"ReorderBuffer.{contract.placement_routine}"
    placement = methods.get(contract.placement_routine)
    if placement is None:
        _diag(report, file, 1, symbol, "placement routine missing")
    elif contract.rewrite_routine not in _names_referenced(placement):
        _diag(
            report, file, placement.lineno, symbol,
            f"placement must fall back to {contract.rewrite_routine} on "
            "gap exhaustion",
        )


def _file_of(index: RepoIndex, module: str) -> str:
    path = index.module_paths[module]
    try:
        return str(path.relative_to(index.root.parent.parent))
    except ValueError:
        return str(path)


def check_contract(
    index: RepoIndex | None = None, contract: ArbitrationContract = CONTRACT
) -> LintReport:
    """Run every static contract check; return one report.

    Contract findings are never suppressible — a drift between spec and
    code must be resolved by changing one of them.
    """
    if index is None:
        from . import source_root

        index = RepoIndex(source_root())
    report = LintReport(program_name="arbitration-contract")
    check_heap_sites(index, report, contract)
    check_placement_routine(index, report, contract)
    report.diagnostics.sort(key=lambda d: (d.file, d.line, d.symbol))
    return report


__all__ = [
    "check_contract",
    "check_heap_sites",
    "check_placement_routine",
]
