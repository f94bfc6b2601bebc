"""Shared module-walker core for the simulator-source static analysis.

Parses every module under ``src/repro`` once and builds the three
indexes the analyzers (atlas, hazard/determinism lint, arbitration
contract) share:

* a **class index** — every class, its declared instance fields
  (``__slots__`` plus ``self.X = ...`` assignments in ``__init__``),
  and its *family*: stage mixins merge into the :class:`Processor`
  facade and any subclass of a tracked class merges into its base, both
  derived from the AST base-class lists rather than hardcoded.
* an **access index** — every attribute read / write / container
  mutation whose receiver resolves to one of the tracked model classes
  (``InstrPool``, ``ReorderBuffer``, ``LoadStoreQueue``,
  ``Processor``, ``_Context``, ``PhysReg``, ``Segment``,
  ``CompletionWheel``), attributed to the defining method.  Columnar
  ``InstrPool`` state is accessed both directly (``pool.order[h]``) and
  through hot-loop column aliases (``orders = pool.order`` then
  ``orders[h]``); the scanner tracks those aliases so a subscript store
  through one still records a mutation of the owning column.
* a **call graph** over the tracked classes' methods, used to attribute
  each access to the pipeline phase(s) it runs under.

Receiver types are inferred, in priority order, from parameter
annotations, from local assignments whose right-hand side has a known
type (constructor calls, typed fields, typed-method returns), and
finally from the repository's documented naming conventions
(:data:`NAME_FALLBACK`).  The inference is deliberately heuristic and
*over-approximate*; the dynamic attribute trace
(:mod:`repro.analysis.staticcheck.trace`) cross-checks that it never
under-approximates on a real simulation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: classes whose field accesses the atlas tracks (family-canonical names)
TRACKED_CLASSES = (
    "CompletionWheel",
    "InstrPool",
    "LoadStoreQueue",
    "PhysReg",
    "Processor",
    "ReorderBuffer",
    "Segment",
    "_Context",
)

#: field -> element/field type annotations the inference engine cannot
#: read off the AST: the declared type of object-holding fields, with
#: ``list:T`` / ``dict:T`` marking containers whose elements are ``T``.
FIELD_TYPES: dict[tuple[str, str], str] = {
    ("ReorderBuffer", "pool"): "InstrPool",
    ("LoadStoreQueue", "pool"): "InstrPool",
    ("Processor", "pool"): "InstrPool",
    ("Processor", "rob"): "ReorderBuffer",
    ("Processor", "lsq"): "LoadStoreQueue",
    ("Processor", "frontier"): "_Context",
    ("Processor", "_completing"): "CompletionWheel",
    ("Processor", "_last_active"): "_Context",
    ("Processor", "contexts"): "list:_Context",
    ("Processor", "retired_map"): "list:PhysReg",
    ("_Context", "segment"): "Segment",
    ("_Context", "rmap"): "list:PhysReg",
}

#: known return types of tracked-class methods (``list:T`` = container)
RETURN_TYPES: dict[tuple[str, str], str] = {
    ("ReorderBuffer", "alloc_into"): "Segment",
    ("Processor", "_active_context"): "_Context",
    ("Processor", "_map_after"): "list:PhysReg",
}

#: documented local-name conventions of the core modules — the fallback
#: tier of receiver inference.  Adding a name here widens the atlas; the
#: dynamic trace gate catches omissions, review catches mis-additions.
NAME_FALLBACK: dict[str, str] = {
    "pool": "InstrPool",
    "ctx": "_Context",
    "current": "_Context",
    "frontier": "_Context",
    "rob": "ReorderBuffer",
    "lsq": "LoadStoreQueue",
    "tag": "PhysReg",
    "t1": "PhysReg",
    "t2": "PhysReg",
    "reg": "PhysReg",
    "segment": "Segment",
    "rmap": "list:PhysReg",
    "overlay": "list:PhysReg",
}

#: method names that mutate their receiver container in place
MUTATING_METHODS = frozenset(
    (
        "append", "add", "clear", "discard", "extend", "insert", "pop",
        "push", "remove", "setdefault", "update", "restore",
    )
)


def _element_of(label: str | None) -> str | None:
    """Element type of a ``list:T`` / ``dict:T`` container label."""
    if label and ":" in label:
        return label.split(":", 1)[1]
    return None


@dataclass
class ClassInfo:
    name: str
    module: str  # dotted module path relative to repro ("core.rob")
    bases: tuple[str, ...]
    slots: tuple[str, ...] = ()
    has_slots: bool = False
    init_fields: tuple[str, ...] = ()
    class_attrs: tuple[str, ...] = ()
    node: ast.ClassDef | None = None


@dataclass
class MethodInfo:
    qualname: str  # "canonical_class.method"
    cls: str  # canonical (family-merged) class label
    name: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: resolved callee qualnames (tracked classes only)
    calls: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Access:
    cls: str  # canonical owner class of the field
    attr: str
    kind: str  # "read" | "write" | "mutate"
    method: str  # qualname of the accessing method
    module: str
    line: int


class RepoIndex:
    """Parsed view of every module under one source root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: dotted module name (relative to the root package) -> AST
        self.modules: dict[str, ast.Module] = {}
        self.module_paths: dict[str, Path] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: raw class name -> canonical family label
        self.family: dict[str, str] = {}
        self._parse_all()
        self._build_classes()
        self._build_family()

    # ------------------------------------------------------------------

    def _parse_all(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            parts = list(rel.parts)
            parts[-1] = parts[-1][: -len(".py")]
            if parts[-1] == "__init__":
                parts.pop()
            name = ".".join(parts) or "__root__"
            self.modules[name] = ast.parse(path.read_text(), filename=str(path))
            self.module_paths[name] = path

    def _build_classes(self) -> None:
        for module, tree in self.modules.items():
            for stmt in ast.walk(tree):
                if not isinstance(stmt, ast.ClassDef):
                    continue
                bases = tuple(
                    b.id for b in stmt.bases if isinstance(b, ast.Name)
                )
                slots: tuple[str, ...] = ()
                has_slots = False
                init_fields: list[str] = []
                class_attrs: list[str] = []
                for item in stmt.body:
                    if isinstance(item, ast.Assign):
                        for tgt in item.targets:
                            if isinstance(tgt, ast.Name):
                                if tgt.id == "__slots__":
                                    has_slots = True
                                    slots = tuple(
                                        elt.value
                                        for elt in ast.walk(item.value)
                                        if isinstance(elt, ast.Constant)
                                        and isinstance(elt.value, str)
                                    )
                                else:
                                    class_attrs.append(tgt.id)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        class_attrs.append(item.target.id)
                    elif (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == "__init__"
                    ):
                        init_fields.extend(self._self_assignments(item))
                self.classes[stmt.name] = ClassInfo(
                    name=stmt.name,
                    module=module,
                    bases=bases,
                    slots=slots,
                    has_slots=has_slots,
                    init_fields=tuple(init_fields),
                    class_attrs=tuple(class_attrs),
                    node=stmt,
                )

    @staticmethod
    def _self_assignments(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        """Names assigned as ``self.X`` anywhere inside ``func``."""
        out = []
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    out.append(tgt.attr)
        return out

    def _build_family(self) -> None:
        """Derive the class families from base-class lists.

        * A tracked class's bases defined in this repo are mixins: their
          methods run over the tracked class's state (``Processor``'s
          stage mixins).
        * A class whose base is tracked is a specialization and merges
          into the base (none today: ``InstrPool`` has a single
          plain-list implementation).
        """
        for name in self.classes:
            self.family[name] = name
        for tracked in TRACKED_CLASSES:
            info = self.classes.get(tracked)
            if info is None:
                continue
            for base in info.bases:
                if base in self.classes and base not in TRACKED_CLASSES:
                    self.family[base] = tracked
        for name, info in self.classes.items():
            for base in info.bases:
                if self.family.get(base) in TRACKED_CLASSES and name not in TRACKED_CLASSES:
                    self.family[name] = self.family[base]

    # ------------------------------------------------------------------

    def canonical(self, cls_name: str) -> str:
        return self.family.get(cls_name, cls_name)

    def declared_fields(self, canonical: str) -> frozenset[str]:
        """Declared instance fields of a family: ``__slots__`` plus
        ``__init__`` assignments, unioned over every family member."""
        fields: set[str] = set()
        for name, info in self.classes.items():
            if self.canonical(name) != canonical:
                continue
            fields.update(info.slots)
            fields.update(info.init_fields)
        return frozenset(fields)

    def family_members(self, canonical: str) -> list[ClassInfo]:
        return [
            info
            for name, info in sorted(self.classes.items())
            if self.canonical(name) == canonical
        ]

    def methods_of_family(self, canonical: str) -> list[MethodInfo]:
        out = []
        for info in self.family_members(canonical):
            assert info.node is not None
            for item in info.node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append(
                        MethodInfo(
                            qualname=f"{canonical}.{item.name}",
                            cls=canonical,
                            name=item.name,
                            module=info.module,
                            node=item,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# receiver-type inference + access extraction


class _FunctionScanner:
    """One pass over one method: infer local types statement-by-
    statement, record tracked-class attribute accesses and calls."""

    def __init__(self, index: RepoIndex, method: MethodInfo, self_type: str | None):
        self.index = index
        self.method = method
        self.env: dict[str, str] = {}
        self.accesses: list[Access] = []
        self.calls: list[str] = []
        if self_type is not None:
            self.env["self"] = self_type
        self._bind_annotations(method.node)

    # -- type inference -------------------------------------------------

    def _bind_annotations(self, func) -> None:
        args = list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        )
        for arg in args:
            if arg.arg == "self" or arg.annotation is None:
                continue
            label = self._annotation_label(arg.annotation)
            if label is not None:
                self.env[arg.arg] = label

    def _annotation_label(self, ann: ast.expr) -> str | None:
        for node in ast.walk(ann):
            if isinstance(node, ast.Name):
                canon = self.index.canonical(node.id)
                if canon in TRACKED_CLASSES:
                    return canon
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                canon = self.index.canonical(node.value.split("|")[0].strip())
                if canon in TRACKED_CLASSES:
                    return canon
        return None

    def infer(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            label = self.env.get(expr.id)
            if label is not None:
                return label
            return NAME_FALLBACK.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer(expr.value)
            if base is not None:
                return FIELD_TYPES.get((base, expr.attr))
            return None
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.IfExp):
            return self.infer(expr.body) or self.infer(expr.orelse)
        if isinstance(expr, ast.BoolOp) and expr.values:
            return self.infer(expr.values[-1])
        return None

    def _infer_call(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            canon = self.index.canonical(func.id)
            if canon in TRACKED_CLASSES and func.id in self.index.classes:
                return canon
            if func.id in ("min", "max", "next", "sorted") and call.args:
                return _element_of(self.infer(call.args[0])) or self.infer(
                    call.args[0]
                )
            if func.id == "list" and call.args:
                return self.infer(call.args[0])
            return None
        if isinstance(func, ast.Attribute):
            base = self.infer(func.value)
            if base is None:
                return None
            if func.attr == "values" and _element_of(base):
                return f"list:{_element_of(base)}"
            return RETURN_TYPES.get((base, func.attr))
        return None

    # -- extraction ------------------------------------------------------

    def scan(self) -> None:
        for stmt in self.method.node.body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            inferred = self.infer(stmt.value)
            for tgt in stmt.targets:
                self._bind_target(tgt, inferred, stmt.value)
                self._scan_target(tgt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
            label = self._annotation_label(stmt.annotation) or (
                stmt.value is not None and self.infer(stmt.value) or None
            )
            if isinstance(stmt.target, ast.Name) and label:
                self.env[stmt.target.id] = label
            self._scan_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            self._record_attr_target(stmt.target, aug=True)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            element = _element_of(self.infer(stmt.iter)) or self.infer(stmt.iter)
            if isinstance(stmt.target, ast.Name) and element is not None:
                # ``for x in <container-of-T>`` binds x: T; iterating a
                # plain T (e.g. iter_from) also yields T nodes.
                self.env[stmt.target.id] = element
            for inner in stmt.body + stmt.orelse:
                self._scan_stmt(inner)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._scan_expr(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._scan_stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            for inner in stmt.body:
                self._scan_stmt(inner)
        elif isinstance(stmt, ast.Try):
            for inner in (
                stmt.body + stmt.orelse + stmt.finalbody
                + [s for h in stmt.handlers for s in h.body]
            ):
                self._scan_stmt(inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function (lambda bodies are expressions and handled
            # by _scan_expr): scan with the current env snapshot.
            for inner in stmt.body:
                self._scan_stmt(inner)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._scan_expr(value)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                self._record_attr_target(tgt, aug=False)

    def _col_alias(self, value: ast.expr) -> str | None:
        """``orders = pool.order`` — a local alias of a tracked-class
        column/container field; subscript stores through the alias are
        mutations of the owning field."""
        if isinstance(value, ast.Attribute):
            base = self.infer(value.value)
            if (
                base in TRACKED_CLASSES
                and value.attr in self.index.declared_fields(base)
            ):
                return f"col:{base}.{value.attr}"
        return None

    def _bind_target(self, tgt: ast.expr, inferred: str | None, value: ast.expr) -> None:
        if isinstance(tgt, ast.Name):
            if inferred is not None:
                self.env[tgt.id] = inferred
            elif (col := self._col_alias(value)) is not None:
                self.env[tgt.id] = col
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                # ``dispatch = self._dispatch``: bound-method alias.
                owner = self.env.get("self")
                if owner is not None:
                    self.env[tgt.id] = f"method:{owner}.{value.attr}"
            else:
                self.env.pop(tgt.id, None)
        elif isinstance(tgt, ast.Tuple):
            # Tuple unpack: bind any name whose element type is known,
            # otherwise leave it to the NAME_FALLBACK tier.
            for elt in tgt.elts:
                if isinstance(elt, ast.Name):
                    self.env.pop(elt.id, None)

    def _scan_target(self, tgt: ast.expr) -> None:
        if isinstance(tgt, ast.Attribute):
            self._record_attr_target(tgt, aug=False)
        elif isinstance(tgt, ast.Subscript):
            # ``container[...] = x`` mutates the container in place.
            self._scan_expr(tgt.slice)
            if isinstance(tgt.value, ast.Attribute):
                self._record(tgt.value, "mutate")
                self._scan_expr(tgt.value.value)
            elif isinstance(tgt.value, ast.Name):
                self._record_col_mutate(tgt.value, tgt.lineno)
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._scan_target(elt)

    def _record_col_mutate(self, name_node: ast.Name, line: int) -> None:
        """Subscript store through a column alias mutates the column."""
        label = self.env.get(name_node.id)
        if label is None or not label.startswith("col:"):
            return
        cls, attr = label[len("col:"):].split(".", 1)
        self.accesses.append(
            Access(
                cls=cls,
                attr=attr,
                kind="mutate",
                method=self.method.qualname,
                module=self.method.module,
                line=line,
            )
        )

    def _record_attr_target(self, tgt: ast.expr, aug: bool) -> None:
        if isinstance(tgt, ast.Attribute):
            self._record(tgt, "write")
            if aug:
                self._record(tgt, "read")
            self._scan_expr(tgt.value)
        elif isinstance(tgt, ast.Subscript):
            self._scan_expr(tgt.slice)
            if isinstance(tgt.value, ast.Attribute):
                self._record(tgt.value, "mutate")
                self._scan_expr(tgt.value.value)
            elif isinstance(tgt.value, ast.Name):
                self._record_col_mutate(tgt.value, tgt.lineno)

    def _record(self, attr_node: ast.Attribute, kind: str) -> None:
        receiver = self.infer(attr_node.value)
        if receiver is None or receiver.startswith(("list:", "dict:", "method:", "col:")):
            return
        if receiver not in TRACKED_CLASSES:
            return
        if attr_node.attr not in self.index.declared_fields(receiver):
            return  # method/property/class-attr lookup, not a field
        self.accesses.append(
            Access(
                cls=receiver,
                attr=attr_node.attr,
                kind=kind,
                method=self.method.qualname,
                module=self.method.module,
                line=attr_node.lineno,
            )
        )

    def _scan_expr(self, expr: ast.expr) -> None:
        """Record every Load-context tracked attribute + resolved calls."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._record(node, "read")
            elif isinstance(node, ast.Call):
                self._record_call(node)

    def _record_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value)
            if receiver is not None and receiver in TRACKED_CLASSES:
                self.calls.append(f"{receiver}.{func.attr}")
                # In-place container mutation through a field:
                # ``self._ready ... heappush`` is handled at the heapq
                # site; ``tag.consumers.append`` mutates the field.
                if func.attr in MUTATING_METHODS and isinstance(
                    func.value, ast.Attribute
                ):
                    self._record(func.value, "mutate")
        elif isinstance(func, ast.Name):
            bound = self.env.get(func.id)
            if bound is not None and bound.startswith("method:"):
                self.calls.append(bound[len("method:"):])
            elif func.id in self.index.classes:
                canon = self.index.canonical(func.id)
                if canon in TRACKED_CLASSES:
                    self.calls.append(f"{canon}.__init__")


def scan_family(index: RepoIndex, canonical: str) -> list[MethodInfo]:
    """Scan every method of a class family, filling ``calls`` and
    returning the methods; accesses land on ``method.accesses``."""
    methods = index.methods_of_family(canonical)
    for method in methods:
        scanner = _FunctionScanner(index, method, self_type=canonical)
        scanner.scan()
        method.calls = scanner.calls
        method.accesses = scanner.accesses  # type: ignore[attr-defined]
    return methods


def collect_accesses(index: RepoIndex) -> tuple[list[Access], dict[str, MethodInfo]]:
    """All tracked-class field accesses made *by* tracked-class methods,
    plus the method table keyed by qualname (for phase attribution)."""
    accesses: list[Access] = []
    methods: dict[str, MethodInfo] = {}
    for canonical in TRACKED_CLASSES:
        for method in scan_family(index, canonical):
            methods[method.qualname] = method
            accesses.extend(method.accesses)  # type: ignore[attr-defined]
    return accesses, methods


__all__ = [
    "Access",
    "ClassInfo",
    "FIELD_TYPES",
    "MethodInfo",
    "MUTATING_METHODS",
    "NAME_FALLBACK",
    "RETURN_TYPES",
    "RepoIndex",
    "TRACKED_CLASSES",
    "collect_accesses",
    "scan_family",
]
