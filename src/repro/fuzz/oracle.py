"""Differential oracle: every registry machine against the reference.

For one program the oracle establishes the architectural truth once
(functional execution → final registers, final memory, golden trace),
then runs every requested machine from :mod:`repro.machines` over the
same bundle and demands:

* **termination** — no :class:`~repro.errors.SimulationHang`,
  :class:`~repro.errors.CosimulationError` or
  :class:`~repro.errors.SanitizerError` (each becomes a classified
  divergence carrying the machine-state snapshot);
* **architectural agreement** (detailed machines) — the commit-side
  register map and committed memory must equal the functional final
  state.  Retired-stream agreement is enforced per-instruction by the
  detailed core's built-in cosimulation against the shared golden
  trace, so any two detailed machines that both pass also agree with
  *each other* — the cross-machine check is transitive through the
  reference;
* **stats invariants** (:mod:`repro.analysis.invariants`) — accounting
  identities like ``retired <= fetched`` per machine family.

Mutant executors (:mod:`repro.fuzz.mutants`) participate as additional
subjects whose final state / trace are compared against the reference —
the known-buggy control group proving the oracle can catch what it
claims to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.invariants import check_stats
from ..cfg import ReconvergenceTable
from ..core import GoldenTrace, Processor
from ..errors import (
    CosimulationError,
    ExecutionLimitExceeded,
    ReproError,
    SanitizerError,
    SimulationHang,
)
from ..functional import run as run_functional
from ..functional.state import ArchState
from ..harness.spec import WorkloadBundle
from ..isa import NUM_REGS, Program
from ..machines import MACHINES, get_machine
from .mutants import mutant_machine, run_mutant

#: divergence classification tags, most severe first
KINDS = (
    "cosim",  # retired state diverged from the golden trace
    "sanitizer",  # a machine-invariant check failed mid-run
    "hang",  # livelock or cycle-budget exhaustion
    "arch-reg",  # final architectural registers disagree
    "arch-mem",  # final memory disagrees
    "stream",  # retired instruction stream disagrees (functional subjects)
    "invariant",  # a stats identity is violated
    "crash",  # the machine raised something unclassified
)

#: cap on dynamic instructions for the reference execution — fuzz cases
#: are generated small, so hitting this is itself suspicious
DEFAULT_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Divergence:
    """One classified disagreement between a machine and the reference."""

    machine: str
    kind: str  # one of KINDS
    detail: str
    snapshot: str | None = None  # MachineSnapshot.describe(), if any

    def describe(self) -> str:
        text = f"[{self.kind}] {self.machine}: {self.detail}"
        if self.snapshot:
            text += f"\n    {self.snapshot}"
        return text


@dataclass
class OracleReport:
    """Everything the oracle learned about one program."""

    program_name: str
    machines: tuple[str, ...]
    golden_length: int
    divergences: list[Divergence] = field(default_factory=list)
    #: per-machine scalar summaries (ipc etc.) for the triage report
    summaries: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def kinds(self) -> dict[str, str]:
        """machine -> kind of its *first* divergence (triage signature)."""
        signature: dict[str, str] = {}
        for divergence in self.divergences:
            signature.setdefault(divergence.machine, divergence.kind)
        return signature

    def describe(self) -> str:
        if self.ok:
            return f"{self.program_name}: {len(self.machines)} machines agree"
        lines = [
            f"{self.program_name}: {len(self.divergences)} divergence(s)"
        ]
        lines += [f"  {d.describe()}" for d in self.divergences]
        return "\n".join(lines)


def program_bundle(program: Program) -> WorkloadBundle:
    """Wrap an arbitrary program in the registry bundle surface."""
    return WorkloadBundle(
        name=program.name,
        scale=1.0,
        program=program,
        golden=GoldenTrace(program),
        reconv=ReconvergenceTable(program),
    )


def _reference_state(program: Program, max_steps: int):
    state = ArchState(pc=program.entry)
    for addr, value in program.data.items():
        state.mem.write(addr, value)
    trace = run_functional(program, max_steps=max_steps, state=state)
    return trace, state


def _compare_arch_state(
    name: str, regs: list[int], mem: dict[int, int], ref: ArchState
) -> list[Divergence]:
    """Compare a machine's final architectural view with the reference."""
    out: list[Divergence] = []
    mismatched = [
        (index, value, ref.read_reg(index))
        for index, value in enumerate(regs)
        if value != ref.read_reg(index)
    ]
    if mismatched:
        index, got, want = mismatched[0]
        out.append(
            Divergence(
                machine=name,
                kind="arch-reg",
                detail=(
                    f"{len(mismatched)} final register(s) disagree; first: "
                    f"r{index}={got} want {want}"
                ),
            )
        )
    ref_mem = {
        addr: value for addr, value in ref.mem.snapshot().items() if value != 0
    }
    got_mem = {addr: value for addr, value in mem.items() if value != 0}
    if got_mem != ref_mem:
        missing = sorted(set(ref_mem) - set(got_mem))
        extra = sorted(set(got_mem) - set(ref_mem))
        wrong = sorted(
            addr
            for addr in set(got_mem) & set(ref_mem)
            if got_mem[addr] != ref_mem[addr]
        )
        sample = (wrong or missing or extra)[0]
        out.append(
            Divergence(
                machine=name,
                kind="arch-mem",
                detail=(
                    f"final memory disagrees: {len(wrong)} wrong, "
                    f"{len(missing)} missing, {len(extra)} extra word(s); "
                    f"first at [{sample}]: "
                    f"got {got_mem.get(sample)} want {ref_mem.get(sample)}"
                ),
            )
        )
    return out


def _classified(name: str, exc: ReproError) -> Divergence:
    if isinstance(exc, SanitizerError):
        kind, detail = "sanitizer", f"{exc.structure}: {exc}"
    elif isinstance(exc, CosimulationError):
        kind, detail = "cosim", str(exc)
    elif isinstance(exc, SimulationHang):
        kind, detail = "hang", f"{exc.kind}: {exc}"
    else:
        kind, detail = "crash", f"{type(exc).__name__}: {exc}"
    snapshot = getattr(exc, "snapshot", None)
    return Divergence(
        machine=name,
        kind=kind,
        detail=detail.splitlines()[0],
        snapshot=snapshot.describe() if snapshot is not None else None,
    )


def _run_detailed(name: str, machine, bundle, ref: ArchState, overrides):
    processor = Processor(
        bundle.program,
        machine.core_config(**(overrides or {})),
        bundle.golden,
        bundle.reconv,
    )
    stats = processor.run()
    regs = [processor.retired_map[index].value for index in range(NUM_REGS)]
    divergences = _compare_arch_state(name, regs, processor.committed_mem, ref)
    return stats, divergences


def _run_mutant_subject(name: str, program: Program, ref_trace, ref: ArchState, max_steps):
    mutant = mutant_machine(name)
    trace, state = run_mutant(mutant, program, max_steps=max_steps)
    divergences: list[Divergence] = []
    if [(e.pc, e.next_pc) for e in trace] != [
        (e.pc, e.next_pc) for e in ref_trace
    ]:
        first = next(
            (
                i
                for i, (got, want) in enumerate(zip(trace, ref_trace))
                if (got.pc, got.next_pc) != (want.pc, want.next_pc)
            ),
            min(len(trace), len(ref_trace)),
        )
        divergences.append(
            Divergence(
                machine=name,
                kind="stream",
                detail=(
                    f"retired stream diverges at seq {first} "
                    f"(lengths {len(trace)} vs {len(ref_trace)})"
                ),
            )
        )
    regs = [state.read_reg(index) for index in range(NUM_REGS)]
    divergences += _compare_arch_state(name, regs, state.mem.snapshot(), ref)
    return trace, divergences


def check_overrides(machines, overrides: dict | None) -> None:
    """Materialize and validate ``overrides`` on every detailed machine
    in ``machines``: an unknown machine, an unknown knob or an
    out-of-range value raises :class:`~repro.errors.ConfigError` here
    instead of surfacing as a per-machine crash divergence."""
    for name in machines:
        machine = get_machine(name)
        if machine.family == "detailed":
            machine.core_config(**(overrides or {})).validate()


def run_oracle(
    program: Program,
    machines: tuple[str, ...] | None = None,
    mutants: tuple[str, ...] = (),
    overrides: dict | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    bundle: WorkloadBundle | None = None,
) -> OracleReport:
    """Differentially test one program across the machine registry.

    ``machines`` defaults to every registry entry; ``mutants`` adds
    known-buggy functional subjects by name; ``overrides`` are per-call
    ``CoreConfig`` overrides applied to every detailed machine (e.g. a
    tighter ``watchdog_cycles`` for fuzz-sized programs).
    """
    chosen = tuple(machines) if machines is not None else tuple(MACHINES)
    check_overrides(chosen, overrides)  # reject bad input before any work
    ref_trace, ref_state = _reference_state(program, max_steps)
    if bundle is None:
        bundle = program_bundle(program)
    report = OracleReport(
        program_name=program.name,
        machines=chosen + tuple(mutants),
        golden_length=len(ref_trace),
    )

    for name in chosen:
        machine = MACHINES[name]
        try:
            if machine.family == "detailed":
                stats, divergences = _run_detailed(
                    name, machine, bundle, ref_state, overrides
                )
                report.divergences += divergences
                report.summaries[name] = {
                    "ipc": round(stats.ipc, 4),
                    "retired": stats.retired,
                    "cycles": stats.cycles,
                    "recoveries": stats.recoveries,
                }
            elif machine.family == "ideal":
                stats = machine.simulate(bundle)
                report.summaries[name] = {
                    "ipc": round(stats.ipc, 4),
                    "retired": stats.retired,
                    "cycles": stats.cycles,
                }
            else:  # functional: re-derives the reference; length check only
                stats = machine.simulate(bundle)
                report.summaries[name] = {"retired": len(stats)}
            violations = check_stats(
                name, machine.family, stats, len(ref_trace)
            )
            report.divergences += [
                Divergence(machine=name, kind="invariant", detail=v)
                for v in violations
            ]
        except ReproError as exc:
            report.divergences.append(_classified(name, exc))
        except Exception as exc:  # noqa: BLE001 — classified as a crash
            report.divergences.append(
                Divergence(
                    machine=name,
                    kind="crash",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )

    for name in mutants:
        try:
            trace, divergences = _run_mutant_subject(
                name, program, ref_trace, ref_state, max_steps
            )
            report.divergences += divergences
            report.summaries[name] = {"retired": len(trace)}
        except ExecutionLimitExceeded as exc:
            # A control-flow mutant can turn a terminating program into
            # an endless one; that *is* a divergence, not a crash.
            report.divergences.append(
                Divergence(machine=name, kind="stream", detail=str(exc))
            )
        except ReproError as exc:
            report.divergences.append(_classified(name, exc))

    return report


__all__ = [
    "DEFAULT_MAX_STEPS",
    "KINDS",
    "Divergence",
    "OracleReport",
    "check_overrides",
    "program_bundle",
    "run_oracle",
]
