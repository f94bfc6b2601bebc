"""Declarative experiment-spec engine: paper figure -> simulator cell.

The paper's results are a matrix of machine models × workloads × knobs.
This module makes every entry in that matrix *data* instead of a
hand-rolled runner function:

* :class:`MachineSpec` — a reference to a :mod:`repro.machines` registry
  entry plus the per-cell configuration overrides (window size, branch
  completion model, reconvergence policy, ...).
* :class:`CellSpec` — one simulated cell: a machine reference, the named
  metric to extract from its stats, and where the value lands in the
  artifact's row shape (``group``/``key``).
* :class:`ExperimentSpec` — one paper figure or table: its cells, the
  row shape that folds cell values into the legacy result structure,
  an optional derived transform (e.g. Figure 6 is a percent-improvement
  view over Figure 5), and the default scale.

Specs register via :func:`register_spec` (the entries live in
:mod:`repro.harness.specs`); one generic :func:`run_spec` engine
executes any entry.  Workload artifacts come through the
content-addressed cache (:func:`load_bundle`), per-workload rows are the
uniform :class:`CellRow` schema consumed by the study runners,
checkpoints and table formatters, and an optional :class:`SpecProfile`
collects per-cell wall clock plus the detailed core's stage-cycle
counters.  The fault-isolated/parallel study paths
(:func:`repro.harness.experiments.run_study`,
:func:`repro.harness.parallel.run_study_parallel`) execute
``run_spec_row`` per (experiment, workload) cell, so checkpoint resume
and process fan-out compose with every registered spec automatically.

Specs serialize to plain JSON (:func:`spec_to_dict` /
:func:`spec_from_dict`): enums are tagged by class and name, tuples are
tagged so round-trips preserve hashability and equality.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from ..bpred import TFRCollector
from ..bpred.evaluate import measure_prediction
from ..cfg import ReconvergenceTable
from ..core import (
    CompletionModel,
    CoreStats,
    GoldenTrace,
    Preemption,
    ReconvPolicy,
    RepredictMode,
)
from ..errors import ConfigError
from ..ideal.models import IdealModel
from ..ideal.tracegen import AnnotatedTrace, annotate
from ..machines import get_machine
from ..workloads import WORKLOAD_NAMES, build_workload
from .batch import batch_enabled, run_batch, run_batch_isolated
from .runner import config_hash

#: row shapes an :class:`ExperimentSpec` may fold its cells into
SHAPES = ("grid", "map", "rows")

#: what a spec needs per workload: the full bundle (program + golden
#: trace + reconvergence table) or just the assembled program
NEEDS = ("bundle", "program")


# ======================================================================
# Workload artifacts (shared data-acquisition layer)


@dataclass
class WorkloadBundle:
    """Shared per-workload artifacts reused across configurations."""

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


def load_bundle(name: str, scale: float, cache=None) -> WorkloadBundle:
    """Assemble + trace one workload, served from the artifact cache.

    The program, golden trace and reconvergence table depend only on
    (name, scale), so every experiment in a study shares one derivation
    per process — see :mod:`repro.harness.cache`.  Pass ``cache=False``
    to force a fresh, private derivation (needed when the caller will
    mutate the artifacts, e.g. fault injection).
    """
    if cache is False:
        workload = build_workload(name, scale)
        return WorkloadBundle(
            name=name,
            scale=scale,
            program=workload.program,
            golden=GoldenTrace(workload.program),
            reconv=ReconvergenceTable(workload.program),
        )
    from .cache import get_default_cache

    artifacts = (cache or get_default_cache()).artifacts(name, scale)
    return WorkloadBundle(
        name=name,
        scale=scale,
        program=artifacts.program,
        golden=artifacts.golden,
        reconv=artifacts.reconv,
    )


def load_program_bundle(name: str, scale: float, cache=None) -> WorkloadBundle:
    """A program-only bundle for specs that never simulate cycles.

    Table 1 measures the architectural trace; deriving the golden trace
    and post-dominator table for it would double its cost at full scale.
    The program still comes from the artifact cache's program layer.
    """
    from .cache import get_default_cache

    program, _ = (cache or get_default_cache()).program(name, scale)
    return WorkloadBundle(
        name=name, scale=scale, program=program, golden=None, reconv=None
    )


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
    metric: str = "ipc"
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
    needs: str = "bundle"  # "bundle" | "program"
    #: name of the spec this artifact derives from (no cells of its own)
    derives: str | None = None
    #: named per-workload transform applied after folding (TRANSFORMS)
    transform: str | None = None
    #: the builder parameters that produced this entry (provenance)
    params: tuple[tuple[str, Any], ...] = ()
    workloads: tuple[str, ...] = WORKLOAD_NAMES

    def validate(self) -> "ExperimentSpec":
        if self.shape not in SHAPES:
            raise ConfigError(
                f"spec {self.name!r}: shape must be one of {SHAPES}, "
                f"got {self.shape!r}"
            )
        if self.needs not in NEEDS:
            raise ConfigError(
                f"spec {self.name!r}: needs must be one of {NEEDS}, "
                f"got {self.needs!r}"
            )
        if (self.derives is None) == (not self.cells):
            raise ConfigError(
                f"spec {self.name!r} must either declare cells or derive "
                "from another spec (exactly one of the two)"
            )
        if self.transform is not None and self.transform not in TRANSFORMS:
            raise ConfigError(
                f"spec {self.name!r}: unknown transform {self.transform!r}; "
                f"choose from {sorted(TRANSFORMS)}"
            )
        for cell in self.cells:
            if cell.metric not in METRICS:
                raise ConfigError(
                    f"spec {self.name!r} cell {cell.label!r}: unknown metric "
                    f"{cell.metric!r}; choose from {sorted(METRICS)}"
                )
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
    :func:`repro.harness.tables.format_rows` formats from it.
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
# Metric and transform registries


@dataclass
class CellContext:
    """What a metric extractor sees after one cell simulation."""

    spec: ExperimentSpec
    cell: CellSpec
    bundle: WorkloadBundle
    result: Any  # CoreStats | IdealResult | functional trace
    collectors: tuple = ()


METRICS: dict[str, Callable[[CellContext], Any]] = {}
TRANSFORMS: dict[str, Callable[[Any], Any]] = {}


def metric(name: str):
    """Register a named metric extractor (``fn(ctx) -> value``)."""

    def wrap(fn):
        METRICS[name] = fn
        return fn

    return wrap


def transform(name: str):
    """Register a named per-workload transform (``fn(data) -> data``)."""

    def wrap(fn):
        TRANSFORMS[name] = fn
        return fn

    return wrap


def percent_improvement(value: float, base: float) -> float:
    """Percent gain over a baseline; 0.0 when the baseline retired
    nothing (a degraded BASE cell must not take down derived figures)."""
    if base == 0:
        return 0.0
    return 100.0 * (value / base - 1.0)


@metric("ipc")
def _metric_ipc(ctx: CellContext) -> float:
    return ctx.result.ipc


@metric("table1_row")
def _metric_table1(ctx: CellContext) -> dict:
    trace = ctx.result  # the functional machine returns the trace
    report = measure_prediction(trace)
    return {
        "instructions": len(trace),
        "misprediction_rate": report.misprediction_rate,
    }


@metric("table2_row")
def _metric_table2(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "pct_reconverge": 100.0 * s.reconverge_fraction,
        "avg_removed": s.avg_removed,
        "avg_inserted": s.avg_inserted,
        "avg_ci": s.avg_ci_preserved,
        "avg_ci_renamed": s.avg_ci_rename_repairs,
    }


@metric("table3_row")
def _metric_table3(ctx: CellContext) -> dict:
    return ctx.result.table3_fractions()


@metric("table4_noci")
def _metric_table4_noci(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "noci_total": s.issues_per_retired,
        "noci_memory": s.reissues_memory / max(1, s.retired),
    }


@metric("table4_ci")
def _metric_table4_ci(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "ci_total": s.issues_per_retired,
        "ci_memory": s.reissues_memory / max(1, s.retired),
        "ci_register": s.reissues_register / max(1, s.retired),
    }


@metric("tfr_curves")
def _metric_tfr_curves(ctx: CellContext) -> dict:
    out: dict = {c.scheme: c.curve() for c in ctx.collectors}
    out["counts"] = {
        c.scheme: (c.stats.total_true, c.stats.total_false)
        for c in ctx.collectors
    }
    return out


@transform("ci_over_base")
def _transform_ci_over_base(machines: dict) -> dict:
    """Figure 6: percent IPC improvement of CI over BASE per window."""
    return {
        window: percent_improvement(
            machines["CI"][window], machines["BASE"][window]
        )
        for window in machines["BASE"]
    }


@transform("pct_vs_base")
def _transform_pct_vs_base(data: dict) -> dict:
    """Figure 17: every non-base group as percent improvement over
    the ``base`` cell, which is consumed by the transform."""
    base = data["base"]
    return {
        group: percent_improvement(value, base)
        for group, value in data.items()
        if group != "base"
    }


# ======================================================================
# Spec registry


SPECS: dict[str, ExperimentSpec] = {}
SPEC_BUILDERS: dict[str, Callable[..., ExperimentSpec]] = {}


def register_spec(builder: Callable[..., ExperimentSpec]):
    """Register a spec builder and its default entry.

    The builder's keyword parameters are the artifact's sweep knobs
    (windows, segments, ...); the registry holds the entry built with
    the defaults, and :func:`run_spec` rebuilds through the builder when
    a caller overrides a knob.
    """
    spec = builder().validate()
    if spec.name in SPECS:
        raise ConfigError(f"spec {spec.name!r} registered twice")
    SPECS[spec.name] = spec
    SPEC_BUILDERS[spec.name] = builder
    return builder


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


def resolve_spec(name_or_spec, params: dict | None = None) -> ExperimentSpec:
    """A spec object, a registered name, or a name + builder knobs."""
    if isinstance(name_or_spec, ExperimentSpec):
        if params:
            raise ConfigError(
                "builder parameters apply to registered spec names, not "
                "to an already-materialized ExperimentSpec"
            )
        return name_or_spec
    spec = get_spec(name_or_spec)
    if not params:
        return spec
    builder = SPEC_BUILDERS[name_or_spec]
    try:
        return builder(**params).validate()
    except TypeError as exc:
        raise ConfigError(
            f"spec {name_or_spec!r} does not accept parameters "
            f"{sorted(params)!r}: {exc}"
        ) from None


def select_cells(spec: ExperimentSpec, labels) -> ExperimentSpec:
    """Subset a spec to the cells named by ``labels`` (spec order kept).

    Unknown labels are rejected loudly.  Transforms still apply to the
    folded subset, so selecting away a cell a transform consumes (e.g.
    the ``base`` cell of Figure 17) fails inside the transform — partial
    reruns of derived views should select at the study level instead.
    """
    if labels is None:
        return spec
    if spec.derives is not None:
        raise ConfigError(
            f"spec {spec.name!r} derives from {spec.derives!r} and has no "
            "cells of its own; select cells on the base spec"
        )
    wanted = list(dict.fromkeys(labels))
    known = set(spec.cell_labels())
    unknown = [label for label in wanted if label not in known]
    if unknown:
        raise ConfigError(
            f"spec {spec.name!r} has no cells {unknown!r}; choose from "
            f"{list(spec.cell_labels())}"
        )
    chosen = set(wanted)
    return replace(
        spec, cells=tuple(c for c in spec.cells if c.label in chosen)
    )


# ======================================================================
# Profiling integration


@dataclass
class SpecProfile:
    """Per-cell wall clock (and detailed-core stage counters) for one or
    more :func:`run_spec` calls; pass as ``profile=``."""

    cells: dict[str, dict[str, Any]] = field(default_factory=dict)

    def record(
        self, key: str, seconds: float, result: Any, memo: bool = False
    ) -> None:
        """Record one cell; ``memo=True`` marks a cell served from the
        study's cell memo (``seconds`` is then the lookup, not a run)."""
        entry: dict[str, Any] = {"seconds": round(seconds, 4)}
        if memo:
            entry["memo"] = True
        if isinstance(result, CoreStats):
            from ..profiling import stage_profile

            entry["stage_cycles"] = stage_profile(result).counters()
        self.cells[key] = entry

    @property
    def total_seconds(self) -> float:
        return round(sum(c["seconds"] for c in self.cells.values()), 4)


# ======================================================================
# The engine


def _load_for(spec: ExperimentSpec, workload: str, scale: float) -> WorkloadBundle:
    if spec.needs == "program":
        return load_program_bundle(workload, scale)
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
        data = TRANSFORMS[spec.transform](data)
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
    spec: ExperimentSpec,
    workload: str,
    bundle,
    plan: list,
    batch: bool | None,
    profile: SpecProfile | None,
    memo: dict | None = None,
) -> list:
    """Produce each planned cell's stats, serially or array-batched.

    ``plan`` is ``[(cell, machine, collectors), ...]`` in spec order.
    When batching is enabled (``batch=`` argument, else ``REPRO_BATCH``)
    every detailed-family cell of the row advances through one
    :func:`~repro.harness.batch.run_batch` driver loop; other families
    run serially as before.  Results are byte-identical either way —
    only wall clock changes — so profile entries for batched cells
    record the batch's amortized per-cell share (the interleaved loop
    has no meaningful per-cell split).

    ``memo`` is the study's cell memo, ``{memo_key: CoreStats}``.  A
    cell whose key is already there gets a ``copy.copy`` of the stored
    stats instead of a simulation, profiled with ``memo=True`` unless
    :func:`prepare_study_batch` already profiled that cell's fused run;
    every keyed cell that simulates successfully is stored.  Failures
    are never stored, so a failing cell's duplicates simulate on their
    own.
    """
    results: list = [None] * len(plan)
    keys = [
        None if memo is None else memo_key(workload, bundle.scale, cell, machine)
        for cell, machine, _ in plan
    ]

    def label(i: int) -> str:
        return f"{spec.name}/{workload}/{plan[i][0].label}"

    def from_memo(i: int) -> bool:
        if keys[i] is None or keys[i] not in memo:
            return False
        t0 = time.perf_counter()
        results[i] = copy.copy(memo[keys[i]])
        if profile is not None and label(i) not in profile.cells:
            profile.record(label(i), time.perf_counter() - t0, results[i], memo=True)
        return True

    def store(i: int) -> None:
        if keys[i] is not None:
            memo[keys[i]] = results[i]

    if batch_enabled(batch):
        batched = [
            i
            for i, (_, machine, _) in enumerate(plan)
            if machine.family == "detailed" and not from_memo(i)
        ]
        if batched:
            procs = [
                plan[i][1].processor(
                    bundle, dict(plan[i][0].machine.overrides), plan[i][2]
                )
                for i in batched
            ]
            t0 = time.perf_counter() if profile is not None else 0.0
            stats = run_batch(procs)
            share = (time.perf_counter() - t0) / len(procs)
            for i, stat in zip(batched, stats):
                results[i] = stat
                store(i)
                if profile is not None:
                    profile.record(label(i), share, stat)
    for i, (cell, machine, collectors) in enumerate(plan):
        if results[i] is not None or from_memo(i):
            continue
        t0 = time.perf_counter() if profile is not None else 0.0
        result = machine.simulate(
            bundle,
            overrides=dict(cell.machine.overrides),
            tfr_collectors=collectors,
        )
        if profile is not None:
            profile.record(label(i), time.perf_counter() - t0, result)
        results[i] = result
        store(i)
    return results


class PlannedCell(NamedTuple):
    """One distinct memo-keyed detailed cell of a study, as planned by
    :func:`plan_study_cells`: the workload and scale it runs at, its
    machine, and the spec and cell label of the first row claiming it."""

    workload: str
    scale: float
    machine: MachineSpec
    experiment: str
    label: str


def plan_study_cells(
    pairs, scale: float | None = None, experiment_kwargs: dict | None = None
) -> dict:
    """The distinct memo-keyed detailed cells of a study's rows.

    ``pairs`` is the pending ``(experiment, workload)`` rows;
    ``experiment_kwargs`` is exactly what the study threads into
    :func:`run_spec_row` (``cells=``/builder params are honoured,
    ``batch=``/``profile=`` are execution strategy and ignored).  Spec
    resolution mirrors ``run_spec_row`` — derived views resolve to their
    base spec with default knobs.  Returns ``{memo_key: PlannedCell}``
    in plan order: rows in ``pairs`` order, cells in spec order, each
    key claimed by its first cell.  A row whose spec or cells cannot be
    resolved is left to the row path, which degrades it per cell.

    The batched study path (:func:`prepare_study_batch`) and the pool's
    cells-first wave (:func:`repro.harness.parallel.run_study_parallel`)
    both plan through here.
    """
    kwargs = {
        k: v
        for k, v in (experiment_kwargs or {}).items()
        if k not in ("batch", "profile", "cells")
    }
    labels = (experiment_kwargs or {}).get("cells")
    plan: dict = {}
    for experiment, workload in dict.fromkeys(pairs):
        try:
            spec = select_cells(resolve_spec(experiment, kwargs), labels)
            while spec.derives is not None:
                spec = resolve_spec(spec.derives)
            if spec.needs != "bundle":
                continue
            row_scale = spec.default_scale if scale is None else scale
            for cell in spec.cells:
                key = memo_key(workload, row_scale, cell, cell.machine.resolve())
                if key is not None and key not in plan:
                    plan[key] = PlannedCell(
                        workload, row_scale, cell.machine, spec.name, cell.label
                    )
        except Exception:
            continue  # bad knobs: the row path reports them
    return plan


def prepare_study_batch(
    pairs,
    memo: dict,
    scale: float | None = None,
    experiment_kwargs: dict | None = None,
) -> None:
    """Pre-simulate a study shard's distinct detailed cells into ``memo``.

    Every cell :func:`plan_study_cells` plans for ``pairs`` and ``memo``
    does not yet hold — so a cell shared by several artifacts (the
    window-256 ``CI`` machine, say) once — advances through one fused
    :func:`~repro.harness.batch.run_batch_isolated` loop: the whole
    shard shares a single GC pause and driver frame.  Each success is
    stored in ``memo`` for :func:`run_spec_row`'s ``memo=`` parameter.
    A ``profile=`` in ``experiment_kwargs`` records the batch's
    amortized per-cell share under the first cell that claimed each
    key; the rows' memo reads then leave that entry alone.

    Failed cells are not stored.  Every row that needs one simulates it
    again, on every runner retry, under the row's ``timeout_seconds`` —
    so a cell that hangs rather than fails fast may come back as a
    ``CellTimeout`` instead of the fused loop's error.  A cell whose
    workload or processor cannot be built is likewise left to the rows,
    which degrade per cell.
    """
    profile = (experiment_kwargs or {}).get("profile")
    procs: list = []
    claims: dict = {}  # memo key -> profile label of the claiming cell
    for key, planned in plan_study_cells(pairs, scale, experiment_kwargs).items():
        if key in memo:
            continue
        try:
            bundle = load_bundle(planned.workload, planned.scale)
            procs.append(
                planned.machine.resolve().processor(
                    bundle, dict(planned.machine.overrides), ()
                )
            )
        except Exception:
            continue
        claims[key] = f"{planned.experiment}/{planned.workload}/{planned.label}"
    if not procs:
        return
    t0 = time.perf_counter()
    outcomes = run_batch_isolated(procs)
    share = (time.perf_counter() - t0) / len(procs)
    for (key, label), (status, payload) in zip(claims.items(), outcomes):
        if status == "ok":
            memo[key] = payload
            if profile is not None:
                profile.record(label, share, payload)


def run_spec_row(
    name_or_spec,
    workload: str,
    scale: float | None = None,
    profile: SpecProfile | None = None,
    cells=None,
    batch: bool | None = None,
    memo: dict | None = None,
    **params,
) -> CellRow:
    """Execute every cell of one spec for one workload.

    This is the unit the fault-isolated study runners (serial and
    parallel) schedule, checkpoint and resume; the returned
    :class:`CellRow` is the uniform row schema.  ``cells`` selects a
    subset of the spec's cells by label (see :func:`select_cells`);
    ``batch`` routes the row's detailed-family cells through the
    array-batched driver (default: the ``REPRO_BATCH`` environment
    variable), with byte-identical rows either way.  ``memo`` is the
    study's cell memo (see :func:`memo_key`): the study runners create
    one per study and thread it through every row, so each distinct
    detailed cell simulates once per study; direct callers normally
    leave it unset and every cell simulates.
    """
    spec = select_cells(resolve_spec(name_or_spec, params), cells)
    if spec.derives is not None:
        base = run_spec_row(
            spec.derives,
            workload,
            scale=scale,
            profile=profile,
            batch=batch,
            memo=memo,
        )
        data = TRANSFORMS[spec.transform](base.data)
        return CellRow(experiment=spec.name, workload=workload, data=data)
    if scale is None:
        scale = spec.default_scale
    bundle = _load_for(spec, workload, scale)
    plan = [
        (
            cell,
            cell.machine.resolve(),
            tuple(TFRCollector(scheme) for scheme in cell.tfr),
        )
        for cell in spec.cells
    ]
    results = _simulate_cells(
        spec, workload, bundle, plan, batch, profile, memo
    )
    outcomes = []
    for (cell, machine, collectors), result in zip(plan, results):
        ctx = CellContext(
            spec=spec,
            cell=cell,
            bundle=bundle,
            result=result,
            collectors=collectors,
        )
        outcomes.append((cell, METRICS[cell.metric](ctx)))
    return CellRow(
        experiment=spec.name,
        workload=workload,
        data=_fold(spec, workload, outcomes),
    )


def assemble_rows(spec: ExperimentSpec, rows: list[CellRow]) -> Any:
    """Fold per-workload rows into the artifact's legacy result shape."""
    if spec.shape == "rows":
        return [row.data for row in rows]
    return {row.workload: row.data for row in rows}


def run_spec(
    name_or_spec,
    scale: float | None = None,
    names=None,
    profile: SpecProfile | None = None,
    cells=None,
    batch: bool | None = None,
    **params,
) -> Any:
    """Run one registered artifact end to end.

    Returns exactly the structure the legacy ``run_figureN`` /
    ``run_tableN`` functions returned (they are now shims over this
    engine), so formatters, benchmarks and checkpoints see identical
    rows.  ``names`` selects workloads; ``cells`` selects cells by label
    (:func:`select_cells`); builder knobs (``windows=...``,
    ``segments=...``) re-materialize the spec through its builder;
    ``batch`` (default: ``REPRO_BATCH``) array-batches each row's
    detailed cells with byte-identical results.
    """
    spec = select_cells(resolve_spec(name_or_spec, params), cells)
    if spec.derives is not None:
        base_spec = resolve_spec(spec.derives)
        base = run_spec(
            base_spec, scale=scale, names=names, profile=profile, batch=batch
        )
        return derive(spec, base)
    if names is None:
        names = spec.workloads
    rows = [
        run_spec_row(spec, workload, scale=scale, profile=profile, batch=batch)
        for workload in names
    ]
    return assemble_rows(spec, rows)


def derive(name_or_spec, base_result: dict) -> dict:
    """Apply a derived spec's transform to its base artifact's result
    (e.g. Figure 6 from already-computed Figure 5 data)."""
    spec = resolve_spec(name_or_spec)
    if spec.transform is None:
        raise ConfigError(f"spec {spec.name!r} declares no transform")
    return {
        workload: TRANSFORMS[spec.transform](data)
        for workload, data in base_result.items()
    }


# ======================================================================
# Serialization (round-trips through plain JSON)

_ENUM_CLASSES = {
    cls.__name__: cls
    for cls in (
        CompletionModel,
        IdealModel,
        Preemption,
        ReconvPolicy,
        RepredictMode,
    )
}


def _encode(value: Any) -> Any:
    import enum

    if isinstance(value, enum.Enum):
        if type(value).__name__ not in _ENUM_CLASSES:
            raise ConfigError(
                f"cannot serialize enum {type(value).__name__}; add it to "
                "repro.harness.spec._ENUM_CLASSES"
            )
        return {"$enum": [type(value).__name__, value.name]}
    if isinstance(value, tuple):
        return {"$tuple": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "$enum" in value:
            cls_name, member = value["$enum"]
            try:
                return _ENUM_CLASSES[cls_name][member]
            except KeyError:
                raise ConfigError(
                    f"cannot deserialize enum {cls_name}.{member}"
                ) from None
        if "$tuple" in value:
            return tuple(_decode(v) for v in value["$tuple"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """A JSON-serialisable form of one spec (exact round-trip)."""
    return {
        "name": spec.name,
        "artifact": spec.artifact,
        "title": spec.title,
        "shape": spec.shape,
        "default_scale": spec.default_scale,
        "needs": spec.needs,
        "derives": spec.derives,
        "transform": spec.transform,
        "params": _encode(spec.params),
        "workloads": list(spec.workloads),
        "cells": [
            {
                "label": cell.label,
                "metric": cell.metric,
                "group": cell.group,
                "key": _encode(cell.key),
                "tfr": list(cell.tfr),
                "machine": {
                    "machine": cell.machine.machine,
                    "overrides": _encode(cell.machine.overrides),
                },
            }
            for cell in spec.cells
        ],
    }


def spec_from_dict(payload: dict) -> ExperimentSpec:
    """Rebuild an :class:`ExperimentSpec` from :func:`spec_to_dict`."""
    try:
        cells = tuple(
            CellSpec(
                label=cell["label"],
                metric=cell["metric"],
                group=cell["group"],
                key=_decode(cell["key"]),
                tfr=tuple(cell["tfr"]),
                machine=MachineSpec(
                    machine=cell["machine"]["machine"],
                    overrides=_decode(cell["machine"]["overrides"]),
                ),
            )
            for cell in payload["cells"]
        )
        return ExperimentSpec(
            name=payload["name"],
            artifact=payload["artifact"],
            title=payload["title"],
            shape=payload["shape"],
            default_scale=payload["default_scale"],
            needs=payload["needs"],
            derives=payload["derives"],
            transform=payload["transform"],
            params=_decode(payload["params"]),
            workloads=tuple(payload["workloads"]),
            cells=cells,
        ).validate()
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed spec payload: {exc}") from None


__all__ = [
    "METRICS",
    "NEEDS",
    "SHAPES",
    "SPECS",
    "SPEC_BUILDERS",
    "TRANSFORMS",
    "CellContext",
    "CellRow",
    "CellSpec",
    "ExperimentSpec",
    "MachineSpec",
    "PlannedCell",
    "SpecProfile",
    "WorkloadBundle",
    "assemble_rows",
    "derive",
    "get_spec",
    "load_bundle",
    "load_program_bundle",
    "memo_key",
    "metric",
    "percent_improvement",
    "plan_study_cells",
    "prepare_study_batch",
    "register_spec",
    "resolve_spec",
    "run_spec",
    "run_spec_row",
    "runnable_experiments",
    "select_cells",
    "spec_from_dict",
    "spec_names",
    "spec_to_dict",
    "transform",
]
