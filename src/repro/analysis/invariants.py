"""Per-machine statistics invariants for the differential oracle.

Architectural-state comparison catches a machine that computes the
*wrong answer*; these invariants catch a machine that computes the right
answer while its *accounting* is corrupt — a retirement counter that
drifts from the golden trace, issue bookkeeping that loses squashed
work, misprediction taxonomies that stop summing.  They are deliberately
conservative: every rule below is a structural identity of the
simulators, not a performance expectation, so a violation is always a
bug (in the machine or in the rule — either is worth a reproducer).

Checkers return a list of human-readable violation strings (empty =
clean) rather than raising, so the fuzz oracle can aggregate them per
cell and the shrinker can use "same violation" as its predicate.
"""

from __future__ import annotations

from ..core.stats import CoreStats
from ..ideal.models import WIDTH, IdealModel
from ..ideal.scheduler import IdealResult


def _violation(name: str, rule: str, detail: str) -> str:
    return f"{name}: {rule} violated ({detail})"


def check_core_stats(
    name: str, stats: CoreStats, golden_length: int
) -> list[str]:
    """Invariants of a detailed-core run that completed without raising."""
    s = stats
    out: list[str] = []

    def expect(ok: bool, rule: str, detail: str) -> None:
        if not ok:
            out.append(_violation(name, rule, detail))

    expect(
        s.retired == golden_length,
        "retired == golden length",
        f"retired={s.retired} golden={golden_length}",
    )
    expect(s.cycles >= 1, "cycles >= 1", f"cycles={s.cycles}")
    expect(
        s.fetched >= s.retired,
        "fetched >= retired",
        f"fetched={s.fetched} retired={s.retired}",
    )
    expect(
        s.issues_of_retired <= s.issues_total,
        "issues_of_retired <= issues_total",
        f"of_retired={s.issues_of_retired} total={s.issues_total}",
    )
    expect(
        s.true_mispredictions + s.false_mispredictions == s.recoveries,
        "true + false mispredictions == recoveries",
        f"true={s.true_mispredictions} false={s.false_mispredictions} "
        f"recoveries={s.recoveries}",
    )
    expect(
        s.reconverged_recoveries <= s.recoveries,
        "reconverged recoveries <= recoveries",
        f"reconverged={s.reconverged_recoveries} recoveries={s.recoveries}",
    )
    expect(
        s.full_squashes <= s.recoveries,
        "full squashes <= recoveries",
        f"full={s.full_squashes} recoveries={s.recoveries}",
    )
    expect(
        s.branch_mispredictions_retired <= s.branch_events,
        "retired mispredictions <= branch events",
        f"mispredictions={s.branch_mispredictions_retired} "
        f"events={s.branch_events}",
    )
    non_negative = (
        "retired", "fetched", "cycles", "recoveries", "issues_total",
        "issues_of_retired", "removed_cd_instructions",
        "inserted_cd_instructions", "ci_instructions_preserved",
        "reissues_memory", "reissues_register", "restart_cycles_total",
        "restart_count", "branch_events",
    )
    for field_name in non_negative:
        value = getattr(s, field_name)
        expect(value >= 0, f"{field_name} >= 0", f"{field_name}={value}")
    return out


def check_ideal_result(
    name: str, result: IdealResult, golden_length: int
) -> list[str]:
    """Invariants of a trace-driven idealized-model run."""
    r = result
    out: list[str] = []

    def expect(ok: bool, rule: str, detail: str) -> None:
        if not ok:
            out.append(_violation(name, rule, detail))

    expect(
        r.retired == golden_length,
        "retired == golden length",
        f"retired={r.retired} golden={golden_length}",
    )
    expect(r.cycles >= 1, "cycles >= 1", f"cycles={r.cycles}")
    expect(
        r.retired <= r.cycles * min(WIDTH, r.window_size),
        "retired <= cycles * min(width, window)",
        f"retired={r.retired} cycles={r.cycles} window={r.window_size}",
    )
    for field_name in (
        "fetched_wrong_path", "full_squashes", "selective_squashes",
        "detections",
    ):
        value = getattr(r, field_name)
        expect(value >= 0, f"{field_name} >= 0", f"{field_name}={value}")
    expect(
        r.full_squashes + r.selective_squashes == r.detections,
        "full + selective squashes == detections",
        f"full={r.full_squashes} selective={r.selective_squashes} "
        f"detections={r.detections}",
    )
    model = r.model
    if model is IdealModel.ORACLE:
        expect(r.detections == 0, "oracle detects no misprediction",
               f"detections={r.detections}")
    if not model.wastes_resources:  # oracle and the nWR models
        expect(r.fetched_wrong_path == 0, f"{model.value} fetches no wrong path",
               f"fetched_wrong_path={r.fetched_wrong_path}")
    if not model.exploits_ci:  # oracle and base
        expect(r.selective_squashes == 0,
               f"{model.value} squashes no control-independent work selectively",
               f"selective_squashes={r.selective_squashes}")
    return out


def check_stats(name: str, family: str, stats, golden_length: int) -> list[str]:
    """Dispatch to the family-appropriate invariant checker.

    The functional machine *is* the reference the golden length comes
    from, so its only invariant is trace length agreement.
    """
    if family == "detailed":
        return check_core_stats(name, stats, golden_length)
    if family == "ideal":
        return check_ideal_result(name, stats, golden_length)
    if family == "functional":
        if len(stats) != golden_length:
            return [
                _violation(
                    name,
                    "trace length == golden length",
                    f"len={len(stats)} golden={golden_length}",
                )
            ]
        return []
    return [f"{name}: unknown machine family {family!r}"]


__all__ = ["check_core_stats", "check_ideal_result", "check_stats"]
