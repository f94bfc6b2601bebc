"""Tests of the determinism lint over the simulator's own source.

Two layers:

* fixture tests prove each rule *detects* its hazard: the ``nondet-*``
  rules on a minimal synthetic source tree (``lint_source`` scans any
  package root), ``undeclared-attr`` on classes defined in this module
  (it runs over live classes);
* repo-level tests pin the lint on ``src/repro`` itself: clean under
  the audited suppressions, with none stale.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.diagnostics import (
    LintReport,
    apply_suppressions,
    stale_suppressions,
)
from repro.analysis.sourcelint import (
    SOURCE_SUPPRESSIONS,
    SourceDiagnostic,
    SourceSuppression,
    lint_source,
)


def _lint_tree(tmp_path, files: dict[str, str]) -> LintReport:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return lint_source(tmp_path, classes=(), suppressions=())


def _lint_classes(tmp_path, *classes) -> LintReport:
    return lint_source(tmp_path, classes=classes, suppressions=())


# ----------------------------------------------------------------------
# rule detection


class _Mixin:
    def from_mixin(self):
        self.declared = 4  # fine: declared in the subclass's __init__
        self.mixin_ghost = 5


class _Widget(_Mixin):
    def __init__(self):
        self.declared = 1

    def later(self):
        self.sneaky = 2
        self.declared = 3  # fine: declared in __init__


class _Slotted:
    __slots__ = ("order", "uid")

    def touch(self):
        self.order = 1
        self.ghost = 2


def test_undeclared_attr_detected(tmp_path):
    report = _lint_classes(tmp_path, _Widget)
    assert sorted(d.symbol for d in report.diagnostics) == [
        "_Widget.mixin_ghost", "_Widget.sneaky",
    ]
    assert report.errors()


def test_slots_count_as_declared(tmp_path):
    report = _lint_classes(tmp_path, _Slotted)
    assert [d.symbol for d in report.diagnostics] == ["_Slotted.ghost"]


class _InitBase:
    def __init__(self):
        self.from_init = 0


class _SlotsAndInit(_InitBase):
    __slots__ = ("from_slots",)

    def work(self):
        self.from_slots = 1
        self.from_init = 2
        self.stray = 3


def test_declared_fields_union_slots_and_init(tmp_path):
    report = _lint_classes(tmp_path, _SlotsAndInit)
    assert [d.symbol for d in report.diagnostics] == ["_SlotsAndInit.stray"]


def test_nondet_import_detected_only_in_semantic_scope(tmp_path):
    report = _lint_tree(tmp_path, {
        "core/clocky.py": "import time\nfrom random import Random\n",
        "harness/free.py": "import time\n",
    })
    symbols = sorted(
        d.symbol for d in report.diagnostics if d.rule == "nondet-import"
    )
    assert symbols == ["core.clocky:random", "core.clocky:time"]


def test_set_iteration_detected(tmp_path):
    report = _lint_tree(tmp_path, {"core/sets.py": """
        class Thing:
            def __init__(self):
                self.pending = set()

            def bad_field_iter(self):
                for item in self.pending:
                    print(item)

            def bad_local_iter(self, xs):
                seen = set(xs)
                return [x + 1 for x in seen]

            def bad_materialize(self, xs):
                return list({x for x in xs})

            def fine(self, xs):
                seen = set(xs)
                if 3 in seen:        # membership: order-free
                    return sorted(seen)  # sorted: order-free
                return len(seen)
    """})
    symbols = [
        d.symbol for d in report.diagnostics if d.rule == "nondet-set-iteration"
    ]
    assert symbols == [
        "core.sets:Thing.bad_field_iter",
        "core.sets:Thing.bad_local_iter",
        "core.sets:Thing.bad_materialize",
    ]


def test_id_order_detected(tmp_path):
    report = _lint_tree(tmp_path, {"core/ids.py": """
        def bad_key(xs):
            return sorted(xs, key=lambda n: id(n))

        def bad_compare(a, b):
            return id(a) < id(b)

        def fine(a, table):
            table[id(a)] = a   # identity key, no ordering
            return id(a) in table
    """})
    assert [d.line for d in report.diagnostics] == [3, 6]
    assert {d.rule for d in report.diagnostics} == {"nondet-id-order"}


# ----------------------------------------------------------------------
# the repo itself


def test_repo_lint_clean_and_no_stale_suppressions():
    report = lint_source()
    assert report.clean, report.format()
    assert report.suppressed, "expected the seeded-generator import to fire"
    assert stale_suppressions([report], SOURCE_SUPPRESSIONS) == []


# ----------------------------------------------------------------------
# suppressions


def test_source_suppression_requires_reason():
    with pytest.raises(ValueError, match="reason"):
        SourceSuppression(rule="x", reason="   ")


def test_stale_suppression_detection():
    diag = SourceDiagnostic(
        rule="nondet-import", severity=2, file="f.py", line=1,
        symbol="a:b", message="m",
    )
    live = SourceSuppression(rule="nondet-import", reason="ok", symbols=("a:b",))
    dead = SourceSuppression(rule="nondet-import", reason="gone", symbols=("a:c",))
    report = LintReport(program_name="t", diagnostics=[diag])
    apply_suppressions(report, (live, dead))
    assert report.clean
    assert stale_suppressions([report], (live, dead)) == [dead]
