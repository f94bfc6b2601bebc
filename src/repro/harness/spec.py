"""Declarative experiment-spec engine: paper figure -> simulator cell.

The paper's results are a matrix of machine models × workloads × knobs.
This module makes every entry in that matrix plain Python data instead
of a hand-rolled runner function:

* :class:`MachineSpec` — a reference to a :mod:`repro.machines` registry
  entry plus the per-cell configuration overrides (window size, branch
  completion model, reconvergence policy, ...).
* :class:`CellSpec` — one simulated cell: a machine reference, the
  metric function that reads its stats (:func:`ipc` by default), and
  where the value lands in the artifact's row shape (``group``/``key``).
* :class:`ExperimentSpec` — one paper figure or table: its cells, the
  row shape that folds cell values into the artifact's result structure,
  an optional transform function (e.g. Figure 6 is a percent-improvement
  view over Figure 5), the formatter that prints it, and the default
  scale.

Metrics, transforms and formatters are the functions themselves, so a
spec entry says in one place how its artifact is measured and printed.
The registry holds the paper's fixed specs (:func:`register_spec`; the
entries live in :mod:`repro.harness.specs`), and one generic
:func:`run_spec` engine executes any entry, or any
:class:`ExperimentSpec` a caller builds, e.g. a registry entry with a
chosen subset of its cells via ``dataclasses.replace``.  Workload
artifacts come through the content-addressed cache (:func:`load_bundle`),
per-workload rows are the uniform :class:`CellRow` schema consumed by
the study runner, checkpoints and table formatters.  The fault-isolated
study (:func:`repro.harness.experiments.run_study`, serial or pooled)
executes ``run_spec_row`` per (experiment, workload) cell, so checkpoint
resume and process fan-out compose with every registered spec
automatically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from ..bpred import TFRCollector
from ..bpred.evaluate import measure_prediction
from ..cfg import ReconvergenceTable
from ..core import GoldenTrace
from ..errors import ConfigError
from ..ideal.tracegen import AnnotatedTrace, annotate
from ..machines import get_machine
# ``build_workload`` is unused here but stays a module attribute: the
# ledger's span probes (ledger/spans.py) patch ``spec.build_workload``.
from ..workloads import WORKLOAD_NAMES, build_workload, check_workload  # noqa: F401
from .runner import config_hash

#: row shapes an :class:`ExperimentSpec` may fold its cells into
SHAPES = ("grid", "map", "rows")


# ======================================================================
# Workload artifacts (shared data-acquisition layer)


@dataclass
class WorkloadBundle:
    """Shared per-workload artifacts reused across configurations.

    ``golden`` and ``reconv`` are ``None`` in the program-only bundle of
    a spec whose cells are all functional machines.
    """

    name: str
    scale: float
    program: object
    golden: GoldenTrace | None
    reconv: ReconvergenceTable | None
    _annotated: AnnotatedTrace | None = field(default=None, repr=False)

    def annotated(self) -> AnnotatedTrace:
        if self._annotated is None:
            self._annotated = annotate(self.program, reconv=self.reconv)
        return self._annotated


def load_bundle(name: str, scale: float) -> WorkloadBundle:
    """Assemble + trace one workload, served from the artifact cache.

    The program, golden trace and reconvergence table depend only on
    (name, scale), so every experiment in a study shares one derivation
    per process — see :mod:`repro.harness.cache`.
    """
    from .cache import get_default_cache

    return get_default_cache().artifacts(name, scale)


# ======================================================================
# Metrics (``fn(result, collectors) -> value``) and transforms
# (``fn(data) -> data``)


def ipc(stats, collectors) -> float:
    return stats.ipc


def table1_row(trace, collectors) -> dict:
    """Table 1 from the functional machine's architectural trace."""
    report = measure_prediction(trace)
    return {
        "instructions": len(trace),
        "misprediction_rate": report.misprediction_rate,
    }


def table2_row(stats, collectors) -> dict:
    return {
        "pct_reconverge": 100.0 * stats.reconverge_fraction,
        "avg_removed": stats.avg_removed,
        "avg_inserted": stats.avg_inserted,
        "avg_ci": stats.avg_ci_preserved,
        "avg_ci_renamed": stats.avg_ci_rename_repairs,
    }


def table3_row(stats, collectors) -> dict:
    return stats.table3_fractions()


def table4_noci(stats, collectors) -> dict:
    return {
        "noci_total": stats.issues_per_retired,
        "noci_memory": stats.reissues_memory / max(1, stats.retired),
    }


def table4_ci(stats, collectors) -> dict:
    return {
        "ci_total": stats.issues_per_retired,
        "ci_memory": stats.reissues_memory / max(1, stats.retired),
        "ci_register": stats.reissues_register / max(1, stats.retired),
    }


def tfr_curves(stats, collectors) -> dict:
    """Figure 10: each TFR collector's coverage curve and event counts."""
    out: dict = {c.scheme: c.curve() for c in collectors}
    out["counts"] = {
        c.scheme: (c.stats.total_true, c.stats.total_false) for c in collectors
    }
    return out


def percent_improvement(value: float, base: float) -> float:
    """Percent gain over a baseline; 0.0 when the baseline retired
    nothing (a degraded BASE cell must not take down derived figures)."""
    if base == 0:
        return 0.0
    return 100.0 * (value / base - 1.0)


def ci_over_base(machines: dict) -> dict:
    """Figure 6: percent IPC improvement of CI over BASE per window."""
    return {
        window: percent_improvement(
            machines["CI"][window], machines["BASE"][window]
        )
        for window in machines["BASE"]
    }


def pct_vs_base(data: dict) -> dict:
    """Figure 17: every non-base group as percent improvement over
    the ``base`` cell, which is consumed by the transform."""
    base = data["base"]
    return {
        group: percent_improvement(value, base)
        for group, value in data.items()
        if group != "base"
    }


# ======================================================================
# Spec dataclasses


@dataclass(frozen=True)
class MachineSpec:
    """A registry machine plus the per-cell configuration overrides."""

    machine: str
    overrides: tuple[tuple[str, Any], ...] = ()

    def resolve(self):
        """The :class:`repro.machines.Machine` this spec references."""
        return get_machine(self.machine)

    def materialize(self):
        """The concrete simulator config this cell runs (drift checks)."""
        machine = self.resolve()
        overrides = dict(self.overrides)
        if machine.family == "detailed":
            return machine.core_config(**overrides)
        if machine.family == "ideal":
            return machine.ideal_config(**overrides)
        return None


@dataclass(frozen=True)
class CellSpec:
    """One simulated cell of a paper artifact."""

    label: str
    machine: MachineSpec
    #: reads the cell's value from its stats (and TFR collectors)
    metric: Callable[[Any, tuple], Any] = ipc
    #: first-level key under the workload in the folded result
    group: str | None = None
    #: second-level key (e.g. the window size) for "grid" shapes
    key: Any = None
    #: TFR collector schemes to attach (detailed machines only)
    tfr: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure or table as a declarative registry entry."""

    name: str
    artifact: str  # e.g. "Figure 5" / "Table 2"
    title: str
    shape: str  # "grid" | "map" | "rows"
    default_scale: float
    cells: tuple[CellSpec, ...] = ()
    #: name of the spec this artifact derives from (no cells of its own)
    derives: str | None = None
    #: per-workload ``fn(data) -> data`` applied after folding
    transform: Callable[[Any], Any] | None = None
    #: ``fn(assembled result) -> text``; ``None`` prints the
    #: ``{workload: {config: value}}`` map under the spec's own title
    format: Callable[[Any], str] | None = None

    def validate(self) -> "ExperimentSpec":
        if self.shape not in SHAPES:
            raise ConfigError(
                f"spec {self.name!r}: shape must be one of {SHAPES}, "
                f"got {self.shape!r}"
            )
        if (self.derives is None) == (not self.cells):
            raise ConfigError(
                f"spec {self.name!r} must either declare cells or derive "
                "from another spec (exactly one of the two)"
            )
        for cell in self.cells:
            cell.machine.resolve()  # raises on unknown machine names
        return self

    def cell_labels(self) -> tuple[str, ...]:
        return tuple(cell.label for cell in self.cells)


@dataclass(frozen=True)
class CellRow:
    """The uniform per-(experiment, workload) row the engine produces.

    This one schema flows everywhere a row used to be an ad-hoc dict:
    the study runners assemble results from it, the checkpoint store
    persists its payload, the parallel workers return it, and
    :func:`assemble_rows` folds it into the shape
    :func:`repro.harness.tables.format_experiment` prints.
    """

    experiment: str
    workload: str
    data: Any

    def to_payload(self) -> dict:
        """The JSON-serialisable form stored in checkpoints."""
        return {
            "experiment": self.experiment,
            "workload": self.workload,
            "data": self.data,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CellRow":
        try:
            return cls(
                experiment=payload["experiment"],
                workload=payload["workload"],
                data=payload["data"],
            )
        except (TypeError, KeyError):
            raise ConfigError(
                "malformed CellRow payload: expected keys "
                f"experiment/workload/data, got {payload!r}"
            ) from None


# ======================================================================
# Spec registry


SPECS: dict[str, ExperimentSpec] = {}


def register_spec(spec: ExperimentSpec) -> None:
    """Validate one of the paper's artifacts and add it to the registry."""
    spec.validate()
    if spec.name in SPECS:
        raise ConfigError(f"spec {spec.name!r} registered twice")
    SPECS[spec.name] = spec


def spec_names() -> tuple[str, ...]:
    """Every registered artifact, in paper order."""
    _ensure_registry()
    return tuple(SPECS)


def runnable_experiments() -> tuple[str, ...]:
    """Spec names that run their own cells (derived views excluded)."""
    _ensure_registry()
    return tuple(name for name, spec in SPECS.items() if spec.cells)


def get_spec(name: str) -> ExperimentSpec:
    _ensure_registry()
    try:
        return SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment spec {name!r}; choose from {sorted(SPECS)}"
        ) from None


def _ensure_registry() -> None:
    # The entries live in repro.harness.specs; importing it populates
    # SPECS via register_spec.  Deferred so spec.py stays importable
    # from specs.py without a cycle.
    if not SPECS:
        from . import specs  # noqa: F401


def resolve_spec(name_or_spec) -> ExperimentSpec:
    """A caller-built spec, validated (so a cell subset that matched
    nothing fails loudly), or the registered spec of that name."""
    if isinstance(name_or_spec, ExperimentSpec):
        return name_or_spec.validate()
    return get_spec(name_or_spec)


# ======================================================================
# The engine


def _load_for(spec: ExperimentSpec, workload: str, scale: float) -> WorkloadBundle:
    """The bundle a spec's cells read.

    A spec whose cells are all functional machines (Table 1) measures
    the architectural trace only, so it gets a program-only bundle:
    deriving the golden trace and post-dominator table for it would
    double its cost at full scale.  The program still comes from the
    artifact cache's program layer.
    """
    from .cache import get_default_cache

    if all(c.machine.resolve().family == "functional" for c in spec.cells):
        program, _ = get_default_cache().program(workload, scale)
        return WorkloadBundle(workload, scale, program, golden=None, reconv=None)
    return load_bundle(workload, scale)


def _fold(spec: ExperimentSpec, workload: str, outcomes: list) -> Any:
    """Fold (cell, value) pairs into the artifact's per-workload data."""
    if spec.shape == "rows":
        row: dict = {"benchmark": workload}
        for _, value in outcomes:
            row.update(value)
        data: Any = row
    else:
        data = {}
        for cell, value in outcomes:
            if spec.shape == "grid":
                data.setdefault(cell.group, {})[cell.key] = value
            elif cell.group is None:
                data.update(value)  # metric returned a whole sub-map
            else:
                data[cell.group] = value
    if spec.transform is not None:
        data = spec.transform(data)
    return data


def memo_key(workload: str, scale: float, cell: CellSpec, machine) -> tuple | None:
    """The study cell memo's key for one cell, or ``None`` when the cell
    always simulates.

    The key is content, never a name: ``(workload, scale,
    config_hash(materialized CoreConfig))``.  So Figure 17's ``postdom``
    bar, Figure 14's ``seg1`` and Figure 9's ``spec-C`` share the one
    simulation of the registry's ``CI`` at the same window.  Only
    detailed cells take part (ideal and functional cells never repeat in
    the registry), and TFR cells bypass the memo because their
    collectors must be the row's own.
    """
    if cell.tfr or machine.family != "detailed":
        return None
    config = machine.core_config(**dict(cell.machine.overrides))
    return (workload, scale, config_hash(config))


def _simulate_cells(
    workload: str,
    scale: float,
    load: Callable[[], WorkloadBundle],
    plan: list,
    memo: dict | None = None,
) -> list:
    """Produce each planned cell's stats, in spec order.

    ``plan`` is ``[(cell, machine, collectors), ...]`` in spec order.
    ``load()`` returns the workload bundle; it is called only when a
    cell must simulate, so a row served wholly from the memo derives no
    artifacts.

    ``memo`` is the study's cell memo, ``{memo_key: CoreStats}``.  A
    cell whose key is already there gets a ``copy.copy`` of the stored
    stats instead of a simulation; every keyed cell that simulates
    successfully is stored.  Failures are never stored, so a
    failing cell's duplicates simulate on their own.
    """
    bundle = None
    results: list = []
    for cell, machine, collectors in plan:
        key = None if memo is None else memo_key(workload, scale, cell, machine)
        if key is not None and key in memo:
            result = copy.copy(memo[key])
        else:
            if bundle is None:
                bundle = load()
            result = machine.simulate(
                bundle,
                overrides=dict(cell.machine.overrides),
                tfr_collectors=collectors,
            )
            if key is not None:
                memo[key] = result
        results.append(result)
    return results


class PlannedCell(NamedTuple):
    """One distinct memo-keyed detailed cell of a study, as planned by
    :func:`plan_study_cells`: the workload it runs on, its machine, and
    the spec of the first row claiming it."""

    workload: str
    machine: MachineSpec
    experiment: str


def plan_study_cells(pairs, scale: float) -> dict:
    """The distinct memo-keyed detailed cells of a study's rows.

    ``pairs`` is the pending ``(experiment, workload)`` rows, each a
    runnable spec.  Returns ``{memo_key: PlannedCell}`` in plan order:
    rows in ``pairs`` order, cells in spec order, each key claimed by
    its first cell.

    The study's pool (:func:`repro.harness.parallel.run_pool`) plans
    through here.
    """
    plan: dict = {}
    for experiment, workload in dict.fromkeys(pairs):
        spec = resolve_spec(experiment)
        for cell in spec.cells:
            key = memo_key(workload, scale, cell, cell.machine.resolve())
            if key is not None and key not in plan:
                plan[key] = PlannedCell(workload, cell.machine, spec.name)
    return plan


def run_spec_row(
    name_or_spec,
    workload: str,
    scale: float | None = None,
    memo: dict | None = None,
) -> CellRow:
    """Execute every cell of one spec for one workload.

    This is the unit the fault-isolated study (serial or pooled)
    schedules, checkpoints and resumes; the returned
    :class:`CellRow` is the uniform row schema.  ``memo`` is the
    study's cell memo (see :func:`memo_key`): the study creates one and
    threads it through every row, so each distinct detailed cell
    simulates once per study; direct callers normally leave it unset
    and every cell simulates.
    """
    spec = resolve_spec(name_or_spec)
    if spec.derives is not None:
        base = run_spec_row(
            spec.derives,
            workload,
            scale=scale,
            memo=memo,
        )
        data = spec.transform(base.data)
        return CellRow(experiment=spec.name, workload=workload, data=data)
    if scale is None:
        scale = spec.default_scale
    plan = [
        (
            cell,
            cell.machine.resolve(),
            tuple(TFRCollector(scheme) for scheme in cell.tfr),
        )
        for cell in spec.cells
    ]
    results = _simulate_cells(
        workload, scale, lambda: _load_for(spec, workload, scale), plan, memo
    )
    outcomes = [
        (cell, cell.metric(result, collectors))
        for (cell, _, collectors), result in zip(plan, results)
    ]
    return CellRow(
        experiment=spec.name,
        workload=workload,
        data=_fold(spec, workload, outcomes),
    )


def assemble_rows(spec: ExperimentSpec, rows: list[CellRow]) -> Any:
    """Fold per-workload rows into the artifact's result shape."""
    if spec.shape == "rows":
        return [row.data for row in rows]
    return {row.workload: row.data for row in rows}


def run_spec(name_or_spec, scale: float | None = None, names=None) -> Any:
    """Run one artifact end to end: a registered name, or any
    :class:`ExperimentSpec` (e.g. a registry entry with the cells you
    chose, ``dataclasses.replace(get_spec("figure5"), cells=...)``).

    Returns the artifact's result shape (:func:`assemble_rows`): a list
    of rows for tables, ``{workload: data}`` for figures.  ``names``
    selects workloads (a sequence, or one bare workload name); a
    repeated name runs once, in first-seen order.  Every name and the
    scale are checked before any row runs: a bad one raises
    :class:`~repro.errors.WorkloadError`.
    """
    spec = resolve_spec(name_or_spec)
    if spec.derives is not None:
        base = run_spec(spec.derives, scale=scale, names=names)
        return derive(spec, base)
    if names is None:
        names = WORKLOAD_NAMES
    elif isinstance(names, str):
        names = (names,)
    names = tuple(dict.fromkeys(names))
    for workload in names:
        check_workload(workload, spec.default_scale if scale is None else scale)
    rows = [run_spec_row(spec, workload, scale=scale) for workload in names]
    return assemble_rows(spec, rows)


def derive(name_or_spec, base_result: dict) -> dict:
    """Apply a derived spec's transform to its base artifact's result
    (e.g. Figure 6 from already-computed Figure 5 data).

    A study's error row (a failed base row) passes through unchanged, so
    one degraded cell cannot take down the derived figure.
    """
    spec = resolve_spec(name_or_spec)
    if spec.transform is None:
        raise ConfigError(f"spec {spec.name!r} declares no transform")
    return {
        workload: data if "error_type" in data else spec.transform(data)
        for workload, data in base_result.items()
    }


def study_artifacts(results: dict) -> dict:
    """Each artifact's data from a study's ``results``, in paper order.

    ``results`` is :func:`~repro.harness.experiments.run_study`'s
    ``{experiment: {workload: row}}``.  Rows fold in ``WORKLOAD_NAMES``
    order whatever order the study ran them in (other workloads follow
    in study order), and a derived spec (Figure 6) derives from its base
    when the base ran.  The result is what :func:`run_spec` returns for
    each artifact at the study's scale.
    """
    data: dict = {}
    for name in spec_names():
        spec = SPECS[name]
        if spec.derives is not None:
            if spec.derives in data:
                data[name] = derive(spec, data[spec.derives])
        elif name in results:
            rows = results[name]
            ordered = [w for w in WORKLOAD_NAMES if w in rows]
            ordered += [w for w in rows if w not in ordered]
            data[name] = assemble_rows(spec, [CellRow(name, w, rows[w]) for w in ordered])
    return data


__all__ = [
    "SHAPES",
    "SPECS",
    "CellRow",
    "CellSpec",
    "ExperimentSpec",
    "MachineSpec",
    "PlannedCell",
    "WorkloadBundle",
    "assemble_rows",
    "ci_over_base",
    "derive",
    "get_spec",
    "ipc",
    "load_bundle",
    "memo_key",
    "pct_vs_base",
    "percent_improvement",
    "plan_study_cells",
    "register_spec",
    "resolve_spec",
    "run_spec",
    "run_spec_row",
    "runnable_experiments",
    "spec_names",
    "study_artifacts",
    "table1_row",
    "table2_row",
    "table3_row",
    "table4_ci",
    "table4_noci",
    "tfr_curves",
]
