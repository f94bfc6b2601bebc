"""Synthetic workloads standing in for the paper's SPEC95 benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis import Suppression
from ..errors import WorkloadError
from ..isa import Program, assemble
from . import kernels

#: Order matches the paper's Table 1.
WORKLOAD_NAMES = ("gcc", "go", "compress", "jpeg", "vortex")

_BUILDERS = {
    "gcc": kernels.gcc_like,
    "go": kernels.go_like,
    "compress": kernels.compress_like,
    "jpeg": kernels.jpeg_like,
    "vortex": kernels.vortex_like,
}


@dataclass
class Workload:
    """A named, assembled workload program."""

    name: str
    program: Program
    scale: float


#: reject scales that would build multi-hour pure-Python runs up front
MAX_SCALE = 1000.0

#: Audited lint findings in the bundled kernels (repro.analysis).
#: The kernel *programs cannot change* — their golden traces anchor the
#: byte-identical equivalence suite — so intentional idioms are
#: acknowledged here with a recorded reason instead of being edited away.
LINT_SUPPRESSIONS: dict[str, tuple[Suppression, ...]] = {
    "compress": (
        Suppression(
            rule="use-before-def",
            registers=(13,),
            reason=(
                "hash-chain store: r13 holds the previous iteration's "
                "code and is deliberately architectural zero on the "
                "first trip through the loop"
            ),
        ),
    ),
    "vortex": (
        Suppression(
            rule="use-before-def",
            registers=(5,),
            reason=(
                "r5 is the lookup callee's return value; calls are "
                "fall-through edges, so the intraprocedural analysis "
                "cannot prove the callee writes it on that path"
            ),
        ),
    ),
}


def lint_suppressions(name: str) -> tuple[Suppression, ...]:
    """Audited suppressions for the named bundled workload (or none)."""
    return LINT_SUPPRESSIONS.get(name, ())


def build_workload(name: str, scale: float = 1.0) -> Workload:
    """Assemble the named workload at the given scale.

    ``scale`` multiplies the main trip counts; 1.0 yields a few tens of
    thousands of dynamic instructions per workload.  Invalid names and
    scales raise :class:`~repro.errors.WorkloadError` before any
    assembly or simulation happens.

    Besides the five bundled kernels, ``fam:<family>:<seed>`` names
    build a seeded variant of a generated workload family
    (:mod:`repro.workloads.families`), so family workloads flow through
    the artifact cache, the spec engine and the parallel scheduler
    exactly like the kernels.
    """
    check_workload(name, scale)
    if name.startswith("fam:"):
        from .families import build_family_workload

        return build_family_workload(name, scale)
    source = _BUILDERS[name](scale)
    return Workload(name=name, program=assemble(source, name=name), scale=scale)


def check_workload(name: str, scale: float) -> None:
    """Raise :class:`~repro.errors.WorkloadError` for an unknown name or
    a bad scale, assembling nothing (:func:`build_workload` runs it)."""
    _check_scale(scale)
    if name.startswith("fam:"):
        from .families import parse_family_name

        parse_family_name(name)
    elif name not in _BUILDERS:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES} "
            "or a 'fam:<family>:<seed>' generated family variant"
        )


def _check_scale(scale: float) -> None:
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise WorkloadError(
            f"workload scale must be a number, got {scale!r} "
            f"({type(scale).__name__})"
        )
    if not math.isfinite(scale) or scale <= 0:
        raise WorkloadError(
            f"workload scale must be a finite positive number, got {scale!r}"
        )
    if scale > MAX_SCALE:
        raise WorkloadError(
            f"workload scale {scale!r} exceeds the sanity cap {MAX_SCALE} "
            "(the paper-scale run is scale=1.0)"
        )


def build_all(scale: float = 1.0) -> list[Workload]:
    """All five workloads, in the paper's Table 1 order."""
    return [build_workload(name, scale) for name in WORKLOAD_NAMES]


__all__ = [
    "LINT_SUPPRESSIONS",
    "WORKLOAD_NAMES",
    "Workload",
    "build_all",
    "build_workload",
    "check_workload",
    "kernels",
    "lint_suppressions",
]
