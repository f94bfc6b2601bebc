"""One named registry from paper machine model to simulator entrypoint.

The paper evaluates two simulator families over a shared set of machine
models: the *detailed* execution-driven core (Sections 3-4: BASE, CI,
CI-I) and the six *idealized* models of Section 2 (oracle, nWR-nFD,
nWR-FD, WR-nFD, WR-FD, base).  Before this module those configurations
were re-built by hand at every call site — a BASE/CI/CI-I helper in
the harness, inline ``CoreConfig`` construction per figure, and copies
in the examples — so adding a machine variant meant editing all of them.

Here every machine is a :class:`Machine` entry with a uniform
``simulate(bundle) -> stats`` entrypoint, dispatched by family:

* ``detailed`` — builds a :class:`~repro.core.CoreConfig` from the
  machine's base knobs plus per-call overrides and runs the cycle-level
  :class:`~repro.core.Processor` over the bundle's program, golden trace
  and reconvergence table.
* ``ideal`` — runs the trace-driven scheduler of
  :mod:`repro.ideal.scheduler` over the bundle's annotated trace under
  an :class:`~repro.ideal.models.IdealConfig`.
* ``functional`` — executes the program architecturally
  (:mod:`repro.functional`) and returns the trace; the measurement
  layer (Table 1) derives prediction statistics from it.

``bundle`` is any object with the :class:`repro.harness.spec
.WorkloadBundle` surface: ``program``, ``golden``, ``reconv`` and an
``annotated()`` memoizer (only the attributes a family needs are read,
so a program-only bundle is enough for the functional machine).

The spec engine (:mod:`repro.harness.spec`), the fuzz oracle and the
examples all resolve machines through this registry, so a new variant
is one entry here — not a sixteenth bespoke runner.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .core import CoreConfig, Processor, ReconvPolicy
from .errors import ConfigError
from .functional import run as run_functional
from .ideal.models import IdealConfig, IdealModel
from .ideal.scheduler import simulate as simulate_ideal

#: family tags, in dispatch order of specificity
FAMILIES = ("detailed", "ideal", "functional")

#: prefix under which the six ideal models are registered
IDEAL_PREFIX = "ideal/"


@dataclass(frozen=True)
class Machine:
    """One named machine model with a uniform simulation entrypoint."""

    name: str
    family: str  # "detailed" | "ideal" | "functional"
    description: str
    #: base configuration knobs; per-call overrides are layered on top
    knobs: tuple[tuple[str, Any], ...] = ()
    #: the idealized model, for family "ideal"
    model: IdealModel | None = None

    # -- configuration materialization ---------------------------------

    def core_config(self, **overrides) -> CoreConfig:
        """Materialize the detailed-core configuration for one cell."""
        if self.family != "detailed":
            raise ConfigError(
                f"machine {self.name!r} is {self.family}; only detailed "
                "machines materialize a CoreConfig"
            )
        return CoreConfig(**self._knobs(CoreConfig, overrides))

    def ideal_config(self, **overrides) -> IdealConfig:
        """Materialize the idealized-study configuration for one cell."""
        if self.family != "ideal":
            raise ConfigError(
                f"machine {self.name!r} is {self.family}; only ideal "
                "machines materialize an IdealConfig"
            )
        return IdealConfig(**self._knobs(IdealConfig, overrides))

    def _knobs(self, config_class, overrides: dict) -> dict:
        """The base knobs with ``overrides`` layered on top, rejecting
        any name ``config_class`` does not declare."""
        knobs = {**dict(self.knobs), **overrides}
        unknown = sorted(set(knobs) - {f.name for f in fields(config_class)})
        if unknown:
            raise ConfigError(
                f"machine {self.name!r}: unknown {config_class.__name__} "
                f"knob(s) {unknown!r}"
            )
        return knobs

    # -- simulation ----------------------------------------------------

    def simulate(self, bundle, overrides=None, tfr_collectors: tuple = ()):
        """Run this machine over a prepared workload bundle.

        Returns the family's stats object: :class:`~repro.core.CoreStats`
        for detailed machines, an
        :class:`~repro.ideal.scheduler.IdealResult` for ideal machines,
        and the architectural trace for the functional machine.  All
        cycle-level results expose ``.ipc``; metric extractors handle
        the rest of the shape differences.
        """
        overrides = dict(overrides) if overrides else {}
        if self.family == "detailed":
            return Processor(
                bundle.program,
                self.core_config(**overrides),
                bundle.golden,
                bundle.reconv,
                tfr_collectors=tfr_collectors,
            ).run()
        if tfr_collectors:
            raise ConfigError(
                f"machine {self.name!r} is {self.family}; TFR collectors "
                "attach only to the detailed core"
            )
        if self.family == "ideal":
            return simulate_ideal(
                bundle.annotated(), self.model, self.ideal_config(**overrides)
            )
        if overrides:
            raise ConfigError(
                f"the functional machine takes no config overrides, "
                f"got {sorted(overrides)!r}"
            )
        return run_functional(bundle.program)


# ----------------------------------------------------------------------
# The registry

def _detailed(name: str, description: str, **knobs) -> Machine:
    return Machine(
        name=name,
        family="detailed",
        description=description,
        knobs=tuple(sorted(knobs.items())),
    )


def _ideal(model: IdealModel) -> Machine:
    return Machine(
        name=f"{IDEAL_PREFIX}{model.value}",
        family="ideal",
        description=f"Section 2 idealized model {model.value}",
        model=model,
    )


#: the hardware reconvergence heuristics of Section 6 / Figure 17, in
#: the paper's bar order (POSTDOM last: the software-table reference)
HEURISTIC_POLICIES = (
    ReconvPolicy.RETURN,
    ReconvPolicy.LOOP,
    ReconvPolicy.LTB,
    ReconvPolicy.RETURN_LOOP,
    ReconvPolicy.RETURN_LTB,
    ReconvPolicy.LOOP_LTB,
    ReconvPolicy.RETURN_LOOP_LTB,
    ReconvPolicy.POSTDOM,
)

#: every named machine, in paper order: the three detailed machines of
#: Section 4, the CI machine under each Section 6 hardware reconvergence
#: heuristic, then the six idealized models of Section 2, then the
#: architectural reference executor.
MACHINES: dict[str, Machine] = {
    machine.name: machine
    for machine in (
        _detailed(
            "BASE",
            "conventional superscalar: every misprediction squashes all "
            "younger instructions",
            reconv_policy=ReconvPolicy.NONE,
        ),
        _detailed(
            "CI",
            "control independence via software post-dominator "
            "reconvergence (selective squash + redispatch)",
            reconv_policy=ReconvPolicy.POSTDOM,
        ),
        _detailed(
            "CI-I",
            "CI with idealized single-cycle redispatch (Section 4.2)",
            reconv_policy=ReconvPolicy.POSTDOM,
            instant_redispatch=True,
        ),
        *(
            _detailed(
                f"CI/{policy.value}",
                f"CI with the {policy.value!r} hardware reconvergence "
                "heuristic (Section 6)",
                reconv_policy=policy,
            )
            for policy in HEURISTIC_POLICIES
            if policy is not ReconvPolicy.POSTDOM
        ),
        *(_ideal(model) for model in IdealModel),
        Machine(
            name="functional",
            family="functional",
            description="architectural reference executor (golden behaviour)",
        ),
    )
}

#: the detailed machines, in Figure 5 column order
DETAILED_MACHINE_NAMES = ("BASE", "CI", "CI-I")


def get_machine(name: str) -> Machine:
    """Look up a registry machine, rejecting unknown names loudly."""
    try:
        return MACHINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None


def ideal_machine(model: IdealModel) -> Machine:
    """The registry entry for one idealized model."""
    return MACHINES[f"{IDEAL_PREFIX}{model.value}"]


def heuristic_machine(policy: ReconvPolicy) -> Machine:
    """The CI machine under one reconvergence policy (Figure 17 bars).

    ``POSTDOM`` maps to the canonical ``CI`` entry; the hardware
    heuristics map to their ``CI/<policy>`` variants.
    """
    if policy is ReconvPolicy.POSTDOM:
        return MACHINES["CI"]
    return get_machine(f"CI/{policy.value}")


__all__ = [
    "DETAILED_MACHINE_NAMES",
    "FAMILIES",
    "HEURISTIC_POLICIES",
    "IDEAL_PREFIX",
    "MACHINES",
    "Machine",
    "get_machine",
    "heuristic_machine",
    "ideal_machine",
]
