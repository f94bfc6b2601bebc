"""Tests of the simulator-source static analysis (atlas, lint, trace).

Three layers:

* fixture-tree tests prove each lint rule *detects* its hazard on a
  minimal synthetic source tree (the rules run over any ``RepoIndex``
  root, so a tmp tree with a class named like a tracked one exercises
  the same code paths as the real repo);
* repo-level tests pin the analysis results on ``src/repro`` itself:
  the committed atlas matches a fresh regeneration, the lint is clean
  under the audited suppressions with none stale, and known structural
  facts (family merging, phase attribution, hazard inventory members)
  hold;
* the dynamic gate: a traced golden-cell run's attribute accesses are
  a subset of the static atlas — the acceptance criterion that the
  heuristic receiver inference never under-approximates.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.diagnostics import LintReport
from repro.analysis.report import (
    SourceDiagnostic,
    SourceSuppression,
    reports_to_dict,
    stale_suppressions,
)
from repro.analysis.staticcheck import (
    RepoIndex,
    SOURCE_SUPPRESSIONS,
    TRACKED_CLASSES,
    build_atlas,
    lint_source,
    source_root,
)
from repro.analysis.staticcheck.atlas import (
    PHASE_ORDER,
    atlas_access_set,
    attribute_phases,
    format_atlas,
)
from repro.analysis.staticcheck.hazards import (
    check_id_order,
    check_nondet_imports,
    check_set_iteration,
    check_undeclared_attrs,
)
from repro.analysis.staticcheck.walker import collect_accesses


@pytest.fixture(scope="module")
def index():
    return RepoIndex(source_root())


@pytest.fixture(scope="module")
def atlas(index):
    return build_atlas(index)


def _tree(tmp_path, files: dict[str, str]) -> RepoIndex:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return RepoIndex(tmp_path)


def _rules_of(report: LintReport) -> list[str]:
    return sorted({d.rule for d in report.diagnostics})


# ----------------------------------------------------------------------
# rule detection on synthetic trees


def test_undeclared_attr_detected(tmp_path):
    idx = _tree(tmp_path, {"core/widget.py": """
        class Processor:
            def __init__(self):
                self.declared = 1

            def later(self):
                self.sneaky = 2
                self.declared = 3  # fine: declared in __init__
    """})
    report = LintReport(program_name="fixture")
    check_undeclared_attrs(idx, report)
    assert [d.symbol for d in report.diagnostics] == ["Processor.sneaky"]
    assert report.errors()


def test_slots_count_as_declared(tmp_path):
    idx = _tree(tmp_path, {"core/widget.py": """
        class InstrPool:
            __slots__ = ("order", "uid")

            def touch(self):
                self.order = 1
                self.ghost = 2
    """})
    report = LintReport(program_name="fixture")
    check_undeclared_attrs(idx, report)
    assert [d.symbol for d in report.diagnostics] == ["InstrPool.ghost"]


def test_nondet_import_detected_only_in_semantic_scope(tmp_path):
    idx = _tree(tmp_path, {
        "core/clocky.py": "import time\nfrom random import Random\n",
        "harness/free.py": "import time\n",
    })
    report = LintReport(program_name="fixture")
    check_nondet_imports(idx, report)
    symbols = sorted(d.symbol for d in report.diagnostics)
    assert symbols == ["core.clocky:random", "core.clocky:time"]


def test_set_iteration_detected(tmp_path):
    idx = _tree(tmp_path, {"core/sets.py": """
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
    report = LintReport(program_name="fixture")
    check_set_iteration(idx, report)
    symbols = [d.symbol for d in report.diagnostics]
    assert symbols == [
        "core.sets:Thing.bad_field_iter",
        "core.sets:Thing.bad_local_iter",
        "core.sets:Thing.bad_materialize",
    ]


def test_id_order_detected(tmp_path):
    idx = _tree(tmp_path, {"core/ids.py": """
        def bad_key(xs):
            return sorted(xs, key=lambda n: id(n))

        def bad_compare(a, b):
            return id(a) < id(b)

        def fine(a, table):
            table[id(a)] = a   # identity key, no ordering
            return id(a) in table
    """})
    report = LintReport(program_name="fixture")
    check_id_order(idx, report)
    assert len(report.diagnostics) == 2
    assert {d.rule for d in report.diagnostics} == {"nondet-id-order"}


# ----------------------------------------------------------------------
# repo-level structural facts


def test_family_merging(index):
    assert {c.name for c in index.family_members("Processor")} == {
        "Processor", "SequencerStage", "BackendStage", "RecoveryStage",
        "RetireStage",
    }
    assert {c.name for c in index.family_members("InstrPool")} == {
        "InstrPool",
    }


def test_declared_fields_union_slots_and_init(index):
    pool = index.declared_fields("InstrPool")
    assert "order" in pool and "uid" in pool and "state" in pool
    proc = index.declared_fields("Processor")
    # the start()-latched loop state must be part of the declared surface
    assert {"_max_cycles", "_watchdog", "_last_retired",
            "_last_progress_cycle"} <= proc


def test_phase_attribution_pins_the_pipeline(index):
    _, methods = collect_accesses(index)
    phases = attribute_phases(methods)
    assert phases["Processor._issue_phase"] == {"issue"}
    assert phases["Processor._sequencer_phase"] == {"sequencer"}
    # retirement removes nodes from the window: ROB removal must be
    # reachable under the retire phase
    assert "retire" in phases["ReorderBuffer.remove"]
    # recovery runs when branches resolve, inside the complete phase
    assert "complete" in phases["Processor._recover"]
    assert list(PHASE_ORDER) == ["complete", "retire", "issue", "sequencer"]


def test_atlas_knows_the_arbitration_key_fields(atlas):
    order = atlas["classes"]["InstrPool"]["fields"]["order"]
    # order-key cells are written at pool construction and at
    # dispatch/placement (sequencer, the cycle's last phase) — never by
    # the complete/retire/issue phases that consume them
    assert order["write_phases"] == ["construct", "sequencer"]
    assert any("sequencer._dispatch" == w or "rob" in w for w in order["writers"])
    state = atlas["classes"]["InstrPool"]["fields"]["state"]
    # issue clears ST_IN_READY / sets ST_INFLIGHT in the state column
    assert "issue" in state["write_phases"]
    assert state["declared_in"] == "slots"


def test_committed_atlas_matches_regeneration(atlas):
    committed_path = source_root() / "analysis" / "atlas.json"
    committed = json.loads(committed_path.read_text())
    assert committed == atlas, (
        "committed analysis/atlas.json drifted — run "
        "examples/staticcheck.py --write-atlas and commit the result"
    )


def test_atlas_covers_all_tracked_classes(atlas):
    assert set(atlas["meta"]["classes"]) <= set(TRACKED_CLASSES)
    for cls in ("InstrPool", "ReorderBuffer", "LoadStoreQueue",
                "Processor", "_Context"):
        assert cls in atlas["classes"], cls
    table = format_atlas(atlas)
    assert "InstrPool" in table and "state" in table


def test_repo_lint_clean_and_no_stale_suppressions(index):
    report = lint_source(index)
    assert report.clean, report.format()
    assert report.suppressed, "expected the audited hazard inventory to fire"
    assert stale_suppressions([report], SOURCE_SUPPRESSIONS) == []


def test_hazard_inventory_contains_the_known_tiebreak_fields(index):
    """The load-bearing arbitration fields must be in the inventory —
    if InstrPool.order or the state column stop being same-cycle
    hazards, the pipeline's structure changed and the contract needs
    review."""
    report = lint_source(index, suppressions=())
    symbols = {d.symbol for d in report.diagnostics if d.rule == "same-cycle-war"}
    assert "InstrPool.order" in symbols
    assert "InstrPool.state" in symbols


# ----------------------------------------------------------------------
# shared report machinery


def test_source_suppression_requires_reason():
    with pytest.raises(ValueError, match="reason"):
        SourceSuppression(rule="x", reason="   ")


def test_stale_suppression_detection():
    diag = SourceDiagnostic(
        rule="same-cycle-war", severity=2, file="f.py", line=1,
        symbol="A.b", message="m",
    )
    live = SourceSuppression(rule="same-cycle-war", reason="ok", symbols=("A.b",))
    dead = SourceSuppression(rule="same-cycle-war", reason="gone", symbols=("A.c",))
    report = LintReport(program_name="t", diagnostics=[diag])
    from repro.analysis.diagnostics import apply_suppressions

    apply_suppressions(report, (live, dead))
    assert report.clean
    assert stale_suppressions([report], (live, dead)) == [dead]


def test_reports_to_dict_schema(index):
    report = lint_source(index)
    doc = reports_to_dict([report], tool="staticcheck", atlas_drift=False)
    assert doc["schema"] == 1
    assert doc["tool"] == "staticcheck"
    assert doc["clean"] is True
    assert doc["atlas_drift"] is False
    (entry,) = doc["reports"]
    assert entry["name"] == "src/repro"
    assert entry["suppressed"], "suppressed findings must serialize"
    one = entry["suppressed"][0]
    assert {"diagnostic", "suppression"} <= set(one)
    assert {"rule", "severity", "message", "file", "line", "symbol"} <= set(
        one["diagnostic"]
    )


# ----------------------------------------------------------------------
# the dynamic gate (acceptance criterion)


def test_dynamic_trace_is_subset_of_static_atlas(atlas):
    from repro.analysis.staticcheck import diff_against_atlas, trace_golden_cell

    events = trace_golden_cell("go", "CI", scale=0.12)
    assert len(events) > 100, "tracer recorded implausibly few accesses"
    missing = diff_against_atlas(events, atlas)
    assert not missing, (
        f"{len(missing)} runtime accesses have no static-atlas entry "
        f"(receiver inference gap): {missing[:10]}"
    )
    # and the trace must cover the hot arbitration columns
    assert ("InstrPool", "order", "read") in events
    assert ("InstrPool", "state", "write") in events


def test_trace_restores_classes():
    from repro.core.soa import InstrPool
    from repro.analysis.staticcheck.trace import trace_attribute_access

    before_get = InstrPool.__getattribute__
    with trace_attribute_access({"InstrPool": frozenset({"order"})}):
        assert InstrPool.__getattribute__ is not before_get
    assert InstrPool.__getattribute__ is before_get
    assert "__getattribute__" not in InstrPool.__dict__
