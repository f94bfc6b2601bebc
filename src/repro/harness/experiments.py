"""Legacy experiment entrypoints: thin shims over the spec registry.

Historically this module held one hand-rolled loop per paper table and
figure.  Those artifacts are now declarative entries in
:mod:`repro.harness.specs`, executed by the generic engine in
:mod:`repro.harness.spec`; every ``run_*`` function below delegates to
:func:`~repro.harness.spec.run_spec` and returns byte-identical rows, so
existing callers (benchmarks, examples, tests) are unaffected.

The fault-isolated study path lives here too: :func:`run_study` runs a
cross-product of registered experiments × workloads, one
:class:`~repro.harness.spec.CellRow` per cell, with per-cell timeout,
retry, checkpoint resume and optional process fan-out
(:mod:`repro.harness.parallel`).
"""

from __future__ import annotations

from ..core import CoreConfig, CoreStats, Processor
from ..errors import ConfigError
from ..ideal.models import IdealModel
from ..machines import HEURISTIC_POLICIES, detailed_machines
from ..workloads import WORKLOAD_NAMES
from .spec import (
    CellRow,
    WorkloadBundle,
    derive,
    load_bundle,
    percent_improvement as _percent_improvement,  # noqa: F401  (legacy name)
    run_spec,
    run_spec_row,
    runnable_experiments,
)
from .specs import COMPLETION_CONFIGS, DETAILED_WINDOWS, IDEAL_WINDOWS

__all__ = [
    "COMPLETION_CONFIGS",
    "DETAILED_WINDOWS",
    "EXPERIMENTS",
    "HEURISTIC_POLICIES",
    "IDEAL_WINDOWS",
    "NON_SEMANTIC_KNOBS",
    "WorkloadBundle",
    "assemble_study",
    "load_bundle",
    "load_bundles",
    "parse_only",
    "run_core",
    "run_figure3",
    "run_figure5",
    "run_figure6",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure12",
    "run_figure13",
    "run_figure14",
    "run_figure17",
    "run_study",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "select_study_cells",
    "study_cells",
    "validate_experiments",
]


def load_bundles(scale: float, names=WORKLOAD_NAMES) -> list[WorkloadBundle]:
    return [load_bundle(name, scale) for name in names]


def run_core(bundle: WorkloadBundle, config: CoreConfig) -> CoreStats:
    """One detailed-machine simulation over a prepared bundle."""
    return Processor(bundle.program, config, bundle.golden, bundle.reconv).run()


def _detailed_machines() -> dict[str, CoreConfig]:
    """BASE / CI / CI-I configs (now sourced from the machine registry)."""
    return detailed_machines()


# ----------------------------------------------------------------------
# Per-artifact shims (signatures preserved; rows byte-identical)


def run_table1(scale: float = 1.0, names=WORKLOAD_NAMES) -> list[dict]:
    return run_spec("table1", scale=scale, names=names)


def run_figure3(
    scale: float = 0.4,
    windows=IDEAL_WINDOWS,
    models=tuple(IdealModel),
    names=WORKLOAD_NAMES,
) -> dict:
    """IPC[workload][model][window] for the Section 2 idealized study."""
    return run_spec(
        "figure3",
        scale=scale,
        names=names,
        windows=tuple(windows),
        models=tuple(models),
    )


def run_figure5(
    scale: float = 0.12, windows=DETAILED_WINDOWS, names=WORKLOAD_NAMES
) -> dict:
    """IPC[workload][machine][window] for BASE, CI and CI-I."""
    return run_spec("figure5", scale=scale, names=names, windows=tuple(windows))


def run_figure6(figure5: dict) -> dict:
    """Percent IPC improvement of CI over BASE, from figure-5 data."""
    return derive("figure6", figure5)


def run_table2(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> list[dict]:
    return run_spec("table2", scale=scale, names=names, window=window)


def run_table3(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> list[dict]:
    return run_spec("table3", scale=scale, names=names, window=window)


def run_table4(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> list[dict]:
    return run_spec("table4", scale=scale, names=names, window=window)


def run_figure8(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    return run_spec("figure8", scale=scale, names=names, window=window)


def run_figure9(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    return run_spec("figure9", scale=scale, names=names, window=window)


def run_figure10(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    """Coverage curves per workload and scheme (static / dynamic pc / xor)."""
    return run_spec("figure10", scale=scale, names=names, window=window)


def run_figure12(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    return run_spec("figure12", scale=scale, names=names, window=window)


def run_figure13(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    return run_spec("figure13", scale=scale, names=names, window=window)


def run_figure14(
    scale: float = 0.12, window: int = 256, segments=(1, 4, 16), names=WORKLOAD_NAMES
) -> dict:
    return run_spec(
        "figure14",
        scale=scale,
        names=names,
        window=window,
        segments=tuple(segments),
    )


def run_figure17(
    scale: float = 0.12, window: int = 256, names=WORKLOAD_NAMES
) -> dict:
    """Percent IPC improvement over BASE per reconvergence policy."""
    return run_spec("figure17", scale=scale, names=names, window=window)


# ----------------------------------------------------------------------
# Fault-isolated full study (robustness layer)

#: every independently runnable experiment (figure 6 derives from 5),
#: in registry order — kept as a name->callable map for compatibility
EXPERIMENTS: dict = {
    name: globals()[f"run_{name}"] for name in runnable_experiments()
}


def validate_experiments(experiments=None) -> list:
    """Resolve an experiment selection against the spec registry.

    A single string names one experiment (``"table2"``), not a sequence
    of one-character names.
    """
    runnable = runnable_experiments()
    if isinstance(experiments, str):
        experiments = [experiments]
    chosen = list(experiments) if experiments is not None else list(runnable)
    unknown = [e for e in chosen if e not in runnable]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown!r}; choose from {sorted(runnable)}"
        )
    return chosen


def parse_only(only) -> list[tuple[str, str | None]]:
    """Normalize ``EXPERIMENT:WORKLOAD`` selectors into pairs.

    Accepts strings (``"figure5:vortex"``, or bare ``"figure5"`` for
    every workload of one experiment) and ``(experiment, workload)``
    tuples (``workload=None`` meaning all); a single string is one
    selector, not a sequence of characters.  Experiment names are
    validated against the registry here; workload names are validated
    against the enumerated grid by :func:`select_study_cells`.
    """
    runnable = runnable_experiments()
    if isinstance(only, str):
        only = [only]
    pairs: list[tuple[str, str | None]] = []
    for item in only:
        if isinstance(item, str):
            exp, _, workload = item.partition(":")
            pairs.append((exp, workload or None))
        else:
            exp, workload = item
            pairs.append((exp, workload))
        if pairs[-1][0] not in runnable:
            raise ConfigError(
                f"selector {item!r}: unknown experiment {pairs[-1][0]!r}; "
                f"choose from {sorted(runnable)}"
            )
    return pairs


def select_study_cells(cells, only):
    """Filter an enumerated study grid by ``EXPERIMENT:WORKLOAD`` pairs.

    Every selector must match at least one enumerated cell — a selector
    naming a workload outside the study's ``names`` is a configuration
    error, not a silent no-op.
    """
    if only is None:
        return list(cells)
    pairs = parse_only(only)
    selected = []
    matched = [False] * len(pairs)
    for cell in cells:
        hit = False
        for i, (exp, workload) in enumerate(pairs):
            if cell.experiment == exp and workload in (None, cell.workload):
                matched[i] = True
                hit = True
        if hit:
            selected.append(cell)
    missed = [pairs[i] for i, ok in enumerate(matched) if not ok]
    if missed:
        raise ConfigError(
            f"selectors matched no study cells: "
            f"{[f'{e}:{w}' if w else e for e, w in missed]!r} "
            "(is the workload in this study's names?)"
        )
    return selected


#: experiment kwargs that choose an execution strategy without touching
#: row content; excluded from the checkpoint config hash so attaching a
#: profile composes with checkpoint resume (and with ``REPRO_JOBS`` — the
#: parallel path reuses the same enumeration) instead of silently
#: re-running every cell
NON_SEMANTIC_KNOBS = ("profile",)


def study_cells(chosen, names, scale: float, experiment_kwargs: dict):
    """Enumerate the study grid as Cells, in deterministic order.

    Serial and parallel execution share this enumeration, so a
    checkpoint written by one is resumable by the other; the config hash
    covers only row-semantic knobs (see :data:`NON_SEMANTIC_KNOBS`), so
    profiled and plain runs of the same study share one checkpoint
    identity.
    """
    from .runner import Cell, config_hash

    semantic = {
        k: v for k, v in experiment_kwargs.items() if k not in NON_SEMANTIC_KNOBS
    }
    cells = []
    for exp in chosen:
        knob_hash = config_hash({"experiment": exp, **semantic})
        for name in names:
            cells.append(
                Cell(experiment=exp, workload=name, config_hash=knob_hash, scale=scale)
            )
    return cells


def assemble_study(chosen, cells, outcomes) -> dict:
    """Fold per-cell outcomes into the study result payload.

    The serial and parallel paths share this assembly, so both produce
    byte-identical rows: successful cells carry a
    :class:`~repro.harness.spec.CellRow` payload whose ``data`` becomes
    the row, failed cells degrade to their error annotation.
    """
    results: dict = {exp: {} for exp in chosen}
    failures: list = []
    resumed = 0
    for cell in cells:
        result = outcomes[cell.key]
        resumed += result.resumed
        if result.ok:
            row = CellRow.from_payload(result.value).data
        else:
            failures.append(result)
            row = result.as_row()
        results[cell.experiment][cell.workload] = row
    return {"results": results, "failures": failures, "resumed": resumed}


def run_study(
    experiments=None,
    scale: float = 0.12,
    names=WORKLOAD_NAMES,
    checkpoint_path=None,
    runner: "CellRunner | None" = None,
    jobs: "int | str | None" = None,
    cache_dir=None,
    timeout_seconds: float | None = None,
    only=None,
    **experiment_kwargs,
) -> dict:
    """Run a cross-product of experiments × workloads fault-isolated.

    Each (experiment, workload) pair runs as one
    :func:`~repro.harness.spec.run_spec_row` cell through a
    :class:`~repro.harness.runner.CellRunner`: a crash or hang in one
    cell becomes an error-annotated row instead of killing the study,
    and — when ``checkpoint_path`` is given — completed cells are
    skipped on resume after an interruption.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, else 1; ``"auto"`` =
    CPU count) fans the grid across worker processes via
    :func:`repro.harness.parallel.run_study_parallel`; results are
    byte-identical to the serial run.  A caller-supplied ``runner``
    forces the serial path (its policy cannot cross process boundaries).
    ``only`` restricts the grid to ``EXPERIMENT:WORKLOAD`` selectors
    (see :func:`select_study_cells`) for partial reruns.

    Each distinct detailed cell simulates once per study: the study
    owns one cell memo (:func:`~repro.harness.spec.memo_key`), created
    here and threaded through every row, so e.g. the window-256 ``CI``
    machine that Figure 5, Tables 2-4 and Figures 8-17 all run is
    simulated once per workload and the other rows read a copy of its
    stats.  Failed cells are never memoized, TFR cells always simulate,
    and two ``run_study`` calls never share results.  Under ``jobs`` the
    pool runs cells first: wave 1 simulates each distinct detailed cell
    of the pending rows once (no retries) into a memo the parent holds,
    then wave 2 runs the rows, each shipped the entries it needs, so the
    simulated-cell count equals the serial path's whichever worker draws
    which task; a cell that failed in wave 1 is simulated by its rows
    with the usual retries.  ``profile`` is excluded from the
    checkpoint identity (:data:`NON_SEMANTIC_KNOBS`), so attaching one
    resumes the same checkpoint.

    Returns ``{"results": {experiment: {workload: row-or-error}},
    "failures": [CellResult...], "resumed": int}``.
    """
    from .runner import CellRunner, RunnerConfig

    chosen = validate_experiments(experiments)
    if runner is None:
        from .parallel import resolve_jobs, run_study_parallel

        if resolve_jobs(jobs) > 1:
            return run_study_parallel(
                experiments=chosen,
                scale=scale,
                names=names,
                checkpoint_path=checkpoint_path,
                jobs=jobs,
                cache_dir=cache_dir,
                timeout_seconds=timeout_seconds,
                only=only,
                **experiment_kwargs,
            )
        runner = CellRunner(
            RunnerConfig(
                checkpoint_path=checkpoint_path, timeout_seconds=timeout_seconds
            )
        )

    cells = select_study_cells(
        study_cells(chosen, names, scale, experiment_kwargs), only
    )
    if only is not None:
        chosen = [e for e in chosen if any(c.experiment == e for c in cells)]

    # One cell memo per study: every row reads and fills it, so each
    # distinct detailed cell simulates once however many artifacts
    # share it.
    memo: dict = {}

    outcomes = {}
    for cell in cells:
        result = runner.run_cell(
            cell,
            lambda exp=cell.experiment, name=cell.workload: run_spec_row(
                exp, name, scale=scale, memo=memo, **experiment_kwargs
            ).to_payload(),
        )
        outcomes[cell.key] = result
    return assemble_study(chosen, cells, outcomes)
