"""Workload lint + dataflow + reconvergence cross-check tests."""

import pytest

from repro.analysis import (
    Diagnostic,
    HEURISTICS,
    Severity,
    Suppression,
    check_program,
    dead_writes,
    heuristic_candidates,
    instruction_uses_of_undefined,
    lint_program,
    reconvergence_report_row,
    score_heuristic,
    stale_suppressions,
)
from repro.cfg import ControlFlowGraph
from repro.errors import AnalysisError, LintFailure, ReproError
from repro.harness import format_reconv_report
from repro.isa import assemble
from repro.workloads import WORKLOAD_NAMES, build_workload, lint_suppressions

# The acceptance-criteria bad program: a definite use-before-def plus an
# unreachable block (nothing targets `orphan`; the halt above seals it).
BAD_PROGRAM = """
    .entry main
main:
    li   r1, 4
    add  r2, r1, r3      # r3 is never written anywhere
    beq  r2, r0, end
    store r2, r0, 0
end:
    halt
orphan:
    addi r9, r9, 1
    jump end
"""


def rules_of(report):
    return [d.rule for d in report.diagnostics]


class TestDiagnostics:
    def test_pc_end_defaults_to_single_instruction(self):
        d = Diagnostic(rule="x", severity=Severity.ERROR, pc=7, message="m")
        assert (d.pc, d.pc_end) == (7, 8)
        assert "pc 7" in d.describe() and ".." not in d.describe()

    def test_region_describe(self):
        d = Diagnostic(rule="x", severity=Severity.WARNING, pc=3, pc_end=9, message="m")
        assert "pc 3..8" in d.describe()

    def test_suppression_requires_reason(self):
        with pytest.raises(ValueError):
            Suppression(rule="dead-write", reason="   ")

    def test_suppression_matching_is_narrowed(self):
        supp = Suppression(rule="dead-write", reason="r", registers=(5,), pcs=(3,))
        hit = Diagnostic(rule="dead-write", severity=Severity.WARNING, pc=3,
                         message="m", register=5)
        assert supp.matches(hit)
        wrong_reg = Diagnostic(rule="dead-write", severity=Severity.WARNING,
                               pc=3, message="m", register=6)
        wrong_rule = Diagnostic(rule="unreachable", severity=Severity.WARNING,
                                pc=3, message="m", register=5)
        assert not supp.matches(wrong_reg)
        assert not supp.matches(wrong_rule)


class TestLintBadProgram:
    def test_expected_diagnostics(self):
        report = lint_program(assemble(BAD_PROGRAM))
        rules = rules_of(report)
        assert "use-before-def" in rules
        assert "unreachable" in rules
        ubd = next(d for d in report.diagnostics if d.rule == "use-before-def")
        assert ubd.severity is Severity.ERROR  # definite: no path defines r3
        assert ubd.register == 3
        orphan = next(d for d in report.diagnostics if d.rule == "unreachable")
        assert orphan.severity is Severity.WARNING
        assert orphan.pc == assemble(BAD_PROGRAM).labels["orphan"]

    def test_check_program_raises_structured_failure(self):
        with pytest.raises(LintFailure) as excinfo:
            check_program(assemble(BAD_PROGRAM))
        err = excinfo.value
        assert isinstance(err, AnalysisError) and isinstance(err, ReproError)
        assert isinstance(err, ValueError)
        assert any(d.rule == "use-before-def" for d in err.diagnostics)
        # warnings are not escalated, only error-severity findings
        assert all(d.severity is Severity.ERROR for d in err.diagnostics)

    def test_error_suppression_restores_clean_exit(self):
        supp = (Suppression(rule="use-before-def", registers=(3,),
                            reason="exercise the architectural-zero read"),)
        report = check_program(assemble(BAD_PROGRAM), supp)
        assert not report.errors()
        assert any(d.rule == "use-before-def" for d, _ in report.suppressed)


class TestLintRules:
    def test_invalid_target_skips_cfg_rules(self):
        program = assemble("beq r1, r0, done\nli r2, 2\ndone: halt")
        program.instructions[0].target = 99
        report = lint_program(program)
        assert rules_of(report) == ["invalid-target"]
        assert report.errors()

    def test_invalid_entry_point(self):
        program = assemble("halt")
        program.entry = 5
        report = lint_program(program)
        assert "invalid-target" in rules_of(report)

    def test_maybe_use_before_def_is_warning(self):
        # r5 is written on the taken path only.
        program = assemble(
            """
            load r1, r0, 0
            beq r1, r0, skip
            li r5, 1
        skip:
            add r6, r5, r0
            store r6, r0, 0
            halt
            """
        )
        report = lint_program(program)
        ubd = [d for d in report.diagnostics if d.rule == "use-before-def"]
        assert [d.severity for d in ubd] == [Severity.WARNING]
        assert ubd[0].register == 5

    def test_dead_write_detected(self):
        program = assemble("li r1, 1\nli r1, 2\nstore r1, r0, 0\nhalt")
        report = lint_program(program)
        dead = [d for d in report.diagnostics if d.rule == "dead-write"]
        assert [(d.pc, d.register) for d in dead] == [(0, 1)]

    def test_store_to_memory_is_not_a_dead_write(self):
        report = lint_program(assemble("li r1, 7\nstore r1, r0, 0\nhalt"))
        assert report.clean

    def test_call_may_define_and_use_everything(self):
        # r3 is the callee's argument (else dead); r5 is its return
        # value (else use-before-def).  Neither may be reported.
        program = assemble(
            """
            li r3, 1
            call fn
            store r5, r0, 0
            halt
        fn:
            load r5, r3, 64
            jr ra
            """
        )
        report = lint_program(program)
        assert not [d for d in report.diagnostics if d.rule == "dead-write"]
        ubd = [d for d in report.diagnostics if d.rule == "use-before-def"]
        # at worst a "maybe" (the callee is not proven to write r5)
        assert all(d.severity is Severity.WARNING for d in ubd)

    def test_loop_without_exit_is_error(self):
        program = assemble(
            """
            li r1, 1
        loop:
            addi r1, r1, 1
            jump loop
            halt
            """
        )
        report = lint_program(program)
        assert any(d.rule == "loop-no-exit" and d.severity is Severity.ERROR
                   for d in report.diagnostics)

    def test_loop_without_induction_update_is_warning(self):
        program = assemble(
            """
        loop:
            xor r1, r1, r2
            bne r1, r0, loop
            halt
            """
        )
        report = lint_program(program)
        assert any(d.rule == "loop-no-induction" for d in report.diagnostics)

    def test_counted_loop_is_clean(self):
        program = assemble(
            """
            li r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            store r1, r0, 0
            halt
            """
        )
        assert lint_program(program).clean

    def test_fall_off_end_warning(self):
        program = assemble("beq r1, r0, tail\nhalt\ntail: addi r1, r1, 1")
        report = lint_program(program)
        assert any(d.rule == "fall-off-end" for d in report.diagnostics)


class TestDataflowPrimitives:
    def test_definite_vs_maybe(self):
        program = assemble(
            """
            beq r1, r0, skip
            li r5, 1
        skip:
            add r6, r5, r4
            store r6, r0, 0
            halt
            """
        )
        cfg = ControlFlowGraph(program)
        uses = {(reg, definite) for _, reg, definite
                in instruction_uses_of_undefined(cfg)}
        assert (5, False) in uses  # defined on one path
        assert (4, True) in uses   # defined on no path
        # r1 feeds the branch and is undefined too, but only "definite"
        assert (1, True) in uses

    def test_dead_write_not_reported_in_unreachable_block(self):
        program = assemble(BAD_PROGRAM)
        cfg = ControlFlowGraph(program)
        orphan_pc = program.labels["orphan"]
        assert all(pc != orphan_pc for pc, _ in dead_writes(cfg))

    def test_analysis_roots_include_call_targets(self):
        program = assemble("call fn\nhalt\nfn: jr ra")
        cfg = ControlFlowGraph(program)
        roots = cfg.analysis_roots()
        assert cfg.block_at(2).index in roots
        assert cfg.block_at(0).index in roots
        assert cfg.reachable_blocks() == set(b.index for b in cfg.blocks)


class TestKernelLint:
    """Acceptance: zero unsuppressed findings over the bundled kernels."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_is_clean_under_recorded_suppressions(self, name):
        program = build_workload(name, 0.12).program
        report = check_program(program, lint_suppressions(name))
        assert report.clean, report.format()
        for _, supp in report.suppressed:
            assert supp.reason.strip()

    def test_suppressions_are_all_used(self):
        # A suppression that matches nothing is stale — fail loudly so
        # the audit table tracks the kernels.
        for name in WORKLOAD_NAMES:
            supps = lint_suppressions(name)
            report = lint_program(build_workload(name, 0.12).program, supps)
            stale = stale_suppressions([report], supps)
            assert stale == [], f"stale suppression in {name}: {stale}"


#: (hits, misses, candidates) per kernel and heuristic at scale 0.12
PINNED_HEURISTIC_SCORES = {
    "gcc": {
        "next-seq": (1, 11, 12), "loop": (3, 9, 6),
        "return": (0, 12, 12), "combined": (3, 9, 27),
    },
    "go": {
        "next-seq": (2, 5, 7), "loop": (2, 5, 4),
        "return": (1, 6, 21), "combined": (3, 4, 30),
    },
    "compress": {
        "next-seq": (1, 1, 2), "loop": (1, 1, 2),
        "return": (0, 2, 0), "combined": (1, 1, 3),
    },
    "jpeg": {
        "next-seq": (2, 1, 3), "loop": (2, 1, 4),
        "return": (0, 3, 0), "combined": (2, 1, 5),
    },
    "vortex": {
        "next-seq": (1, 1, 2), "loop": (1, 1, 2),
        "return": (0, 2, 2), "combined": (1, 1, 5),
    },
}


class TestReconvergenceCrossCheck:
    def test_diamond_favors_taken_target_over_next_seq(self):
        # if-then-else: reconvergence is the join, not the fall-through.
        program = assemble(
            """
            beq r1, r0, other
            li r2, 1
            jump join
        other:
            li r2, 2
        join:
            store r2, r0, 0
            halt
            """
        )
        score = score_heuristic(program, "next-seq")
        assert score.with_exact == 1 and score.hits == 0

    def test_loop_heuristic_hits_counted_loop(self):
        program = assemble(
            """
            li r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            store r1, r0, 0
            halt
            """
        )
        score = score_heuristic(program, "loop")
        assert score.hits == 1 and score.misses == 0
        assert score.recall == 1.0

    def test_unknown_heuristic_rejected(self):
        program = assemble("halt")
        with pytest.raises(ValueError):
            heuristic_candidates(program, "psychic", 0)

    def test_report_rows_for_all_workloads(self):
        rows = [
            reconvergence_report_row(build_workload(name, 0.12).program)
            for name in WORKLOAD_NAMES
        ]
        assert [row["benchmark"] for row in rows] == list(WORKLOAD_NAMES)
        for row in rows:
            assert tuple(row["heuristics"]) == HEURISTICS
            for score in row["heuristics"].values():
                assert 0.0 <= score.precision <= 1.0
                assert 0.0 <= score.recall <= 1.0
                assert score.hits + score.misses == score.with_exact
        # the table EXPERIMENTS.md prints (lint_workloads.py 0.12)
        assert {
            row["benchmark"]: {
                name: (score.hits, score.misses, score.candidates)
                for name, score in row["heuristics"].items()
            }
            for row in rows
        } == PINNED_HEURISTIC_SCORES
        text = format_reconv_report(rows)
        for name in WORKLOAD_NAMES:
            assert name in text
        for heuristic in HEURISTICS:
            assert heuristic in text

    def test_postdom_exact_coverage_is_total_on_kernels(self):
        # every kernel branch has a static reconvergent point: the exact
        # table is the ceiling the heuristics are scored against
        for name in WORKLOAD_NAMES:
            row = reconvergence_report_row(build_workload(name, 0.12).program)
            assert row["exact_coverage"] == 1.0
