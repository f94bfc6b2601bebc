"""Budgeted, checkpointed, crash-resilient differential fuzz campaigns.

One campaign = N generated cases (cycling through the workload
families), each run through the differential oracle, with every
divergence shrunk to a minimized reproducer and saved to the corpus.
A campaign runs on the same fault-isolated executor as a study
(:mod:`repro.harness.runner`, :mod:`repro.harness.parallel`):

* per-case wall-clock **timeout** and retry/backoff via
  :class:`~repro.harness.runner.CellRunner`, :data:`CASE_ATTEMPTS`
  tries per case (inside each worker, so no timer crosses a process
  boundary);
* **checkpoint resume** via :func:`~repro.harness.runner.run_keyed`
  (parent-only writer, writes batched every :data:`CASE_FLUSH_EVERY`
  cases and flushed on the way out, even when interrupted): a resumed
  campaign re-runs *zero* completed cases;
* **worker-crash resilience** via
  :func:`~repro.harness.parallel.map_resilient`: an OOM-killed worker
  costs only its in-flight cases, recorded as structured
  ``WorkerCrash`` rows by :func:`~repro.harness.parallel.outcome_result`;
* a **wall-clock budget** via :class:`~repro.harness.runner.Deadline`:
  cases not dispatched when the budget expires are recorded as
  ``BudgetExpired`` rows and picked up by the next resume.

The returned triage report is plain JSON: counts, cases/sec, the
divergence signatures grouped by (machine, kind), reproducer paths and
per-case status — structured enough for CI to assert on and for a human
to triage a multi-hour run from one file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ConfigError
from ..harness.parallel import (
    BUDGET_EXPIRED,
    OUTCOME_SKIPPED,
    map_resilient,
    outcome_result,
    resolve_jobs,
)
from ..harness.runner import (
    Cell,
    CellResult,
    CellRunner,
    CheckpointStore,
    Deadline,
    config_hash,
    run_keyed,
)
from ..machines import MACHINES
from ..workloads import _check_scale
from .mutants import mutant_machine

# NOTE: repro.workloads.families builds its family tables from
# repro.fuzz.generator at import time, so importing it here at module
# level would close an import cycle through the repro.fuzz package
# __init__; every use below imports it inside the function instead.
from .oracle import check_overrides, run_oracle
from .shrink import divergence_predicate, shrink_program

#: cap on the reference execution per case (generated cases are small)
CASE_MAX_STEPS = 500_000

#: detailed-core overrides applied to every campaign case: fuzz-sized
#: programs retire in thousands of cycles, so a much tighter watchdog
#: turns a livelock into a fast, classified divergence instead of a
#: 50k-cycle stall per case
CASE_OVERRIDES = (("watchdog_cycles", 20_000),)

#: tries per case: a case is deterministic, so only a timeout is
#: retried, once
CASE_ATTEMPTS = 2

#: batch checkpoint writes: a hard kill re-runs at most this many cases
CASE_FLUSH_EVERY = 25


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run depends on (hashable, checkpoint-keyed)."""

    seed: int = 0
    cases: int = 200
    #: registry machines to test; None = the whole registry
    machines: tuple[str, ...] | None = None
    #: workload families to cycle through; None = all of them
    families: tuple[str, ...] | None = None
    #: known-buggy executors to add (injected-fault dry runs)
    mutants: tuple[str, ...] = ()
    scale: float = 0.5
    #: worker processes, or "auto" (see repro.harness.parallel.resolve_jobs)
    jobs: int | str = 1
    timeout_seconds: float | None = 60.0
    budget_seconds: float | None = None
    checkpoint_path: str | None = None
    #: where minimized reproducers land; None disables saving
    corpus_dir: str | None = None
    shrink: bool = True
    #: extra CoreConfig overrides for detailed machines
    overrides: tuple[tuple[str, object], ...] = CASE_OVERRIDES

    def validate(self) -> "CampaignConfig":
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"campaign seed must be an int, got {self.seed!r}")
        if not isinstance(self.cases, int) or isinstance(self.cases, bool) or self.cases < 1:
            raise ConfigError(f"cases must be an int >= 1, got {self.cases!r}")
        budget = self.budget_seconds
        if budget is not None and (
            not isinstance(budget, (int, float)) or isinstance(budget, bool)
            or not budget > 0
        ):
            raise ConfigError(
                f"budget_seconds must be a positive number or None, got {budget!r}"
            )
        # A bare string would be iterated as one-character names.
        for knob in ("machines", "families", "mutants"):
            if isinstance(getattr(self, knob), str):
                raise ConfigError(
                    f"{knob} must be a sequence of names, not the string "
                    f"{getattr(self, knob)!r}"
                )
        # Bad execution knobs would otherwise degrade every case, or
        # silently run serially.
        resolve_jobs(self.jobs)
        CellRunner(self.timeout_seconds)  # the runner's timeout rule
        _check_scale(self.scale)
        # Bad overrides would fail every detailed machine on every case,
        # and the campaign would shrink and save each as a reproducer.
        check_overrides(self.machine_names(), dict(self.overrides))
        from ..workloads.families import get_family

        for name in self.families or ():
            get_family(name)
        for name in self.mutants:
            mutant_machine(name)
        return self

    def machine_names(self) -> tuple[str, ...]:
        return self.machines if self.machines is not None else tuple(MACHINES)

    def family_names(self) -> tuple[str, ...]:
        from ..workloads.families import FAMILY_NAMES

        return self.families if self.families is not None else FAMILY_NAMES

    def case_workload(self, index: int) -> str:
        """The family workload name of case ``index`` (seed-disambiguated)."""
        from ..workloads.families import family_workload_name

        families = self.family_names()
        family = families[index % len(families)]
        variant = self.seed * 1_000_003 + index
        return family_workload_name(family, variant)

    def case_key(self, index: int) -> str:
        """Checkpoint key: family, oracle config hash, per-case seed."""
        digest = config_hash(
            (
                self.machine_names(),
                self.mutants,
                self.overrides,
                self.scale,
            )
        )
        return Cell(
            experiment="fuzz",
            workload=self.case_workload(index),
            config_hash=digest,
            scale=self.scale,
        ).key


def run_case(
    workload_name: str,
    machines: tuple[str, ...],
    mutants: tuple[str, ...],
    overrides: dict,
    scale: float,
    shrink: bool,
    corpus_dir: str | None,
) -> dict:
    """One campaign case: generate, differentially test, shrink, save.

    Returns a JSON-serialisable payload.  Shrinking happens *inside*
    the case (and therefore inside its timeout and checkpoint), so a
    resumed campaign never repeats a completed minimization.
    """
    from ..workloads import build_workload

    started = time.perf_counter()
    workload = build_workload(workload_name, scale)
    report = run_oracle(
        workload.program,
        machines=machines,
        mutants=mutants,
        overrides=overrides,
        max_steps=CASE_MAX_STEPS,
    )
    payload: dict = {
        "workload": workload_name,
        "ok": report.ok,
        "golden_length": report.golden_length,
        "static_instructions": len(workload.program.instructions),
        "divergences": [
            {
                "machine": d.machine,
                "kind": d.kind,
                "detail": d.detail,
                "snapshot": d.snapshot,
            }
            for d in report.divergences
        ],
        "signature": report.kinds(),
    }
    if report.divergences and shrink:
        predicate = divergence_predicate(
            machines=machines,
            mutants=mutants,
            signature=report.kinds(),
            overrides=overrides,
            max_steps=CASE_MAX_STEPS,
        )
        try:
            small = shrink_program(workload.program, predicate)
        except ValueError:
            # Not reproducible in isolation (e.g. flaky only under the
            # original program); keep the full program as the artifact.
            small = workload.program
        payload["shrunk_instructions"] = len(small.instructions)
        if corpus_dir is not None:
            from .corpus import save_reproducer

            path = save_reproducer(
                corpus_dir,
                small,
                signature=report.kinds(),
                machines=machines,
                mutants=mutants,
                provenance={"workload": workload_name, "scale": scale},
            )
            payload["reproducer"] = str(path)
    payload["case_seconds"] = round(time.perf_counter() - started, 3)
    return payload


def _run_case_cell(key: str, case: tuple, timeout_seconds: float | None) -> CellResult:
    """One case under the case timeout and retries: a pool task, and
    each step of the serial loop."""
    return CellRunner(timeout_seconds, CASE_ATTEMPTS).run_cell(
        key, lambda: run_case(*case)
    )


def run_campaign(config: CampaignConfig) -> dict:
    """Run (or resume) one campaign; returns the triage report."""
    config = config.validate()
    jobs = resolve_jobs(config.jobs)
    started = time.perf_counter()
    deadline = Deadline.after(config.budget_seconds)
    keys = [config.case_key(index) for index in range(config.cases)]

    def task(index: int) -> tuple:
        case = (
            config.case_workload(index), config.machine_names(), config.mutants,
            dict(config.overrides), config.scale, config.shrink, config.corpus_dir,
        )
        return keys[index], case, config.timeout_seconds

    def run_pending(indices: list[int], settle) -> None:
        if jobs > 1:
            map_resilient(
                _run_case_cell, [task(index) for index in indices], jobs,
                deadline=deadline,
                on_result=lambda position, outcome: settle(
                    outcome_result(keys[indices[position]], outcome)
                ),
            )
            return
        for index in indices:
            if deadline.expired():
                settle(outcome_result(keys[index], (OUTCOME_SKIPPED, BUDGET_EXPIRED)))
            else:
                settle(_run_case_cell(*task(index)))

    store = (
        CheckpointStore(config.checkpoint_path, flush_every=CASE_FLUSH_EVERY)
        if config.checkpoint_path is not None
        else None
    )
    outcomes = run_keyed(keys, store, run_pending)
    return _triage_report(config, keys, outcomes, time.perf_counter() - started)


def _triage_report(
    config: CampaignConfig,
    keys: list[str],
    outcomes: dict[str, CellResult],
    wall_seconds: float,
) -> dict:
    """Fold per-case outcomes into the structured campaign report."""
    counts = {
        "total": len(keys), "executed": 0, "resumed": 0, "clean": 0,
        "divergent": 0, "error": 0, "crashed": 0, "skipped": 0,
    }
    statuses: dict[str, str] = {}
    divergences: list[dict] = []
    errors: list[dict] = []
    signature_groups: dict[str, int] = {}
    for key in keys:
        result = outcomes[key]
        if result.ok:
            counts["resumed" if result.resumed else "executed"] += 1
            if result.value.get("ok"):
                counts["clean"] += 1
                statuses[key] = "clean"
            else:
                counts["divergent"] += 1
                statuses[key] = "divergent"
                entry = {
                    "case": key,
                    "workload": result.value.get("workload"),
                    "signature": result.value.get("signature"),
                    "divergences": result.value.get("divergences"),
                }
                if "reproducer" in result.value:
                    entry["reproducer"] = result.value["reproducer"]
                    entry["shrunk_instructions"] = result.value.get(
                        "shrunk_instructions"
                    )
                divergences.append(entry)
                for machine, kind in (result.value.get("signature") or {}).items():
                    group = f"{machine}:{kind}"
                    signature_groups[group] = signature_groups.get(group, 0) + 1
        elif result.error_type == "WorkerCrash":
            counts["crashed"] += 1
            statuses[key] = "crashed"
            errors.append({
                "case": key, "error_type": result.error_type,
                "error": result.error,
            })
        elif result.error_type == "BudgetExpired":
            counts["skipped"] += 1
            statuses[key] = "skipped"
        else:
            counts["error"] += 1
            statuses[key] = f"error:{result.error_type}"
            errors.append({
                "case": key, "error_type": result.error_type,
                "error": result.error,
            })
    executed = counts["executed"]
    return {
        "campaign": {
            "seed": config.seed,
            "cases": config.cases,
            "machines": list(config.machine_names()),
            "families": list(config.family_names()),
            "mutants": list(config.mutants),
            "scale": config.scale,
            "jobs": config.jobs,
            "budget_seconds": config.budget_seconds,
        },
        "counts": counts,
        "wall_seconds": round(wall_seconds, 3),
        "cases_per_second": round(executed / wall_seconds, 3)
        if wall_seconds > 0 and executed
        else 0.0,
        "signature_groups": signature_groups,
        "divergences": divergences,
        "errors": errors,
        "statuses": statuses,
    }


__all__ = [
    "CASE_ATTEMPTS",
    "CASE_FLUSH_EVERY",
    "CASE_MAX_STEPS",
    "CASE_OVERRIDES",
    "CampaignConfig",
    "run_campaign",
    "run_case",
]
