"""Statistics collected by the detailed simulator.

Covers everything the paper's Section 4 tables report: IPC (Fig 5/6),
restart/redispatch statistics (Table 2), work saved by control
independence (Table 3) and issue counts by reissue cause (Table 4),
plus the appendix measures (false mispredictions, restart durations,
re-prediction behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CoreStats:
    cycles: int = 0
    retired: int = 0
    fetched: int = 0

    # --- misprediction / recovery accounting -------------------------
    recoveries: int = 0  # all recovery events (true + false)
    true_mispredictions: int = 0  # golden outcome really differed
    false_mispredictions: int = 0  # correct prediction, wrong operands
    reconverged_recoveries: int = 0  # found a reconvergent point in window
    full_squashes: int = 0

    # Table 2 ----------------------------------------------------------
    removed_cd_instructions: int = 0  # squashed incorrect CD instructions
    inserted_cd_instructions: int = 0  # fetched correct CD instructions
    ci_instructions_preserved: int = 0  # CI instrs in window at recovery
    ci_rename_repairs: int = 0  # CI instrs re-renamed during redispatch

    # Table 3 (classified at retirement) -------------------------------
    retired_fetch_saved: int = 0  # fetched before an older mp resolved
    retired_work_saved: int = 0  # had final value before mp resolved
    retired_work_discarded: int = 0  # had issued but reissued after mp
    retired_only_fetched: int = 0  # fetched early, never issued early

    # Table 4 ----------------------------------------------------------
    issues_total: int = 0  # every issue event, incl. squashed work
    issues_of_retired: int = 0  # total issues of instructions that retired
    reissues_memory: int = 0  # loads squashed by stores
    reissues_register: int = 0  # redispatch rename repairs

    # Appendix ----------------------------------------------------------
    restart_cycles_total: int = 0  # duration of restart sequences
    restart_count: int = 0
    preemptions: int = 0
    repredict_overturned_correct: int = 0
    repredict_events: int = 0
    squashed_ci_for_restart: int = 0  # CI squashed youngest-first for room
    sequence_repairs: int = 0  # commit-time next-PC check flushes

    branch_events: int = 0  # conditional + indirect predictions retired
    branch_mispredictions_retired: int = 0  # wrong prediction at retire time

    # Cycle accounting (perf profiling layer) --------------------------
    # Cycles in which each pipeline stage did any work; a cycle can count
    # toward several stages.  These are diagnostics for the ledger's
    # stage metrics and never feed a paper statistic.
    stage_fetch_cycles: int = 0  # >=1 instruction fetched by the frontier
    stage_dispatch_cycles: int = 0  # >=1 instruction dispatched (any context)
    stage_issue_cycles: int = 0  # >=1 instruction issued to execute
    stage_complete_cycles: int = 0  # >=1 instruction completed
    stage_recover_cycles: int = 0  # >=1 branch recovery serviced
    stage_retire_cycles: int = 0  # >=1 instruction retired

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        """Every derived ratio funnels through this guard: an empty or
        degraded run (no cycles, no recoveries, no restarts) reports
        0.0 instead of raising ZeroDivisionError mid-study."""
        if denominator == 0:
            return 0.0
        return numerator / denominator

    @property
    def ipc(self) -> float:
        return self._ratio(self.retired, self.cycles)

    @property
    def issues_per_retired(self) -> float:
        """Paper Table 4: how many times the retired instructions issued."""
        return self._ratio(self.issues_of_retired, self.retired)

    @property
    def reconverge_fraction(self) -> float:
        return self._ratio(self.reconverged_recoveries, self.recoveries)

    @property
    def avg_removed(self) -> float:
        return self._ratio(self.removed_cd_instructions, self.reconverged_recoveries)

    @property
    def avg_inserted(self) -> float:
        return self._ratio(self.inserted_cd_instructions, self.reconverged_recoveries)

    @property
    def avg_ci_preserved(self) -> float:
        return self._ratio(self.ci_instructions_preserved, self.reconverged_recoveries)

    @property
    def avg_ci_rename_repairs(self) -> float:
        return self._ratio(self.ci_rename_repairs, self.reconverged_recoveries)

    @property
    def avg_restart_cycles(self) -> float:
        return self._ratio(self.restart_cycles_total, self.restart_count)

    @property
    def branch_misprediction_rate(self) -> float:
        """Retirement-time misprediction rate (0.0 when nothing retired)."""
        return self._ratio(self.branch_mispredictions_retired, self.branch_events)

    @property
    def false_misprediction_fraction(self) -> float:
        """Share of recoveries that were false mispredictions (App. A.2)."""
        return self._ratio(self.false_mispredictions, self.recoveries)

    @property
    def repredict_accuracy(self) -> float:
        """Fraction of re-predictions that overturned to the correct
        outcome (0.0 when the mode never re-predicted)."""
        return self._ratio(self.repredict_overturned_correct, self.repredict_events)

    def stage_cycle_counters(self) -> dict[str, int]:
        """Per-stage active-cycle counters plus the total, as one dict
        (the cycle-accounting view the ledger's stage metrics read)."""
        return {
            "cycles": self.cycles,
            "fetch": self.stage_fetch_cycles,
            "dispatch": self.stage_dispatch_cycles,
            "issue": self.stage_issue_cycles,
            "complete": self.stage_complete_cycles,
            "recover": self.stage_recover_cycles,
            "retire": self.stage_retire_cycles,
        }

    def table3_fractions(self) -> dict[str, float]:
        """Work saved by CI as fractions of retired instructions (Table 3)."""
        denom = self.retired or 1
        return {
            "fetch_saved": self.retired_fetch_saved / denom,
            "work_saved": self.retired_work_saved / denom,
            "work_discarded": self.retired_work_discarded / denom,
            "had_only_fetched": self.retired_only_fetched / denom,
        }
