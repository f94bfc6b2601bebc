"""Annotated trace generation for the idealized study (paper Section 2).

One architectural pass produces everything the idealized scheduler needs:

* the golden dynamic trace;
* the data-dependence graph of the correct path (register and memory
  producers per dynamic instruction) — renaming and oracle memory
  disambiguation reduce all dependences to these true ones (Sec 2.2);
* per-branch prediction outcomes from the paper's front end (gshare +
  CTB + perfect RAS) with perfectly up-to-date history — the same
  idealization the paper applies (Appendix A.3.1 discusses its cost);
* for every misprediction, the functionally executed wrong path, its
  internal dependence graph, and the false register/memory write sets
  it would impose on control-independent consumers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..bpred import FrontEnd
from ..cfg import ReconvergenceTable
from ..functional import TraceEntry, trace_iter, wrong_path
from ..isa import NUM_REGS, Program

#: wrong-path instructions executed per misprediction; schedulers clip
#: this further to their window size
WRONG_PATH_CAP = 600

#: Producer encoding: >=0 is a correct-trace seq, NONE is no producer,
#: internal wrong-path producers are encoded as -(index + 2).
NO_PRODUCER = -1


def encode_internal(index: int) -> int:
    return -(index + 2)


def decode_internal(code: int) -> int:
    return -code - 2


@dataclass(slots=True)
class WrongPathInstr:
    """One speculatively executed wrong-path instruction + its producers."""

    entry: TraceEntry
    src1: int = NO_PRODUCER
    src2: int = NO_PRODUCER
    mem: int = NO_PRODUCER


@dataclass(slots=True)
class Misprediction:
    """Annotation for one mispredicted control instruction."""

    seq: int
    predicted_pc: int
    #: reconvergent point (PC) from post-dominator analysis, None if the
    #: branch has none (or is an indirect jump)
    reconv_pc: int | None
    #: first dynamic occurrence of reconv_pc after the branch
    reconv_seq: int | None
    #: True when wrong-path fetch arrived at the reconvergent point
    #: within the generation budget (else the machine never finds it)
    wp_reached_reconv: bool = False
    wrong_path: list[WrongPathInstr] = field(default_factory=list)
    false_regs: frozenset = frozenset()
    false_addrs: frozenset = frozenset()


@dataclass
class AnnotatedTrace:
    """Golden trace + dependence graph + misprediction annotations."""

    program: Program
    entries: list[TraceEntry]
    dep1: list[int]  # rs1 producer seq per entry (NO_PRODUCER if none)
    dep2: list[int]  # rs2 producer seq
    depm: list[int]  # memory producer (store seq) for loads
    mispredictions: dict[int, Misprediction]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def misprediction_count(self) -> int:
        return len(self.mispredictions)


def annotate(
    program: Program,
    reconv: ReconvergenceTable | None = None,
    max_steps: int = 5_000_000,
) -> AnnotatedTrace:
    """Run ``program`` once and build the annotated trace, predicting
    with the paper's front end at its default geometry."""
    fe = FrontEnd()
    table = reconv if reconv is not None else ReconvergenceTable(program)

    entries: list[TraceEntry] = []
    dep1: list[int] = []
    dep2: list[int] = []
    depm: list[int] = []
    mispredictions: dict[int, Misprediction] = {}

    last_writer = [NO_PRODUCER] * NUM_REGS
    last_store: dict[int, int] = {}
    pc_positions: dict[int, list[int]] = {}
    history = 0

    for entry, state in trace_iter(program, max_steps):
        seq = entry.seq
        instr = entry.instr
        entries.append(entry)
        pc_positions.setdefault(entry.pc, []).append(seq)

        sources = instr.sources
        dep1.append(last_writer[instr.rs1] if instr.rs1 in sources else NO_PRODUCER)
        dep2.append(last_writer[instr.rs2] if instr.rs2 in sources else NO_PRODUCER)
        if instr.is_load:
            depm.append(last_store.get(entry.addr, NO_PRODUCER))
        else:
            depm.append(NO_PRODUCER)

        # Prediction annotation (up-to-date state: the Section 2
        # idealization).  A blind CTB miss (cold entry, no target)
        # spawns no wrong path, though Table 1 counts it as mispredicted.
        wrong_pc: int | None = None
        if instr.is_control:
            prediction, history = fe.predict_uptodate(
                instr, entry.pc, history, entry.taken, entry.next_pc
            )
            if instr.is_branch:
                if prediction.taken != entry.taken:
                    wrong_pc = prediction.next_pc
            elif (
                instr.is_indirect
                and not instr.is_return
                and prediction.next_pc != entry.next_pc
                and not prediction.blind
            ):
                wrong_pc = prediction.next_pc

        if wrong_pc is not None:
            reconv_pc = table.reconvergent_pc(entry.pc) if instr.is_branch else None
            stop = frozenset((reconv_pc,)) if reconv_pc is not None else frozenset()
            wp_entries, reached = wrong_path(
                state, program, wrong_pc, stop, WRONG_PATH_CAP
            )
            mispredictions[seq] = _build_misprediction(
                seq, wrong_pc, reconv_pc, reached, wp_entries, last_writer, last_store
            )

        # Architectural bookkeeping happens after dependence resolution.
        if instr.dest is not None:
            last_writer[instr.dest] = seq
        if instr.is_store:
            last_store[entry.addr] = seq

    # Resolve reconvergent sequence numbers now that the trace is complete.
    for mp in mispredictions.values():
        if mp.reconv_pc is None:
            continue
        positions = pc_positions.get(mp.reconv_pc, ())
        idx = bisect.bisect_right(positions, mp.seq)
        mp.reconv_seq = positions[idx] if idx < len(positions) else None

    return AnnotatedTrace(program, entries, dep1, dep2, depm, mispredictions)


def _build_misprediction(
    seq: int,
    wrong_pc: int,
    reconv_pc: int | None,
    wp_reached_reconv: bool,
    wp_entries: list[TraceEntry],
    last_writer: list[int],
    last_store: dict[int, int],
) -> Misprediction:
    """Resolve wrong-path dependences and false write sets at the branch."""
    wp: list[WrongPathInstr] = []
    wp_writer: dict[int, int] = {}
    wp_store: dict[int, int] = {}
    false_regs: set[int] = set()
    false_addrs: set[int] = set()

    def producer(reg: int) -> int:
        if reg in wp_writer:
            return encode_internal(wp_writer[reg])
        return last_writer[reg]

    for idx, entry in enumerate(wp_entries):
        instr = entry.instr
        sources = instr.sources
        src1 = producer(instr.rs1) if instr.rs1 in sources else NO_PRODUCER
        src2 = producer(instr.rs2) if instr.rs2 in sources else NO_PRODUCER
        mem = NO_PRODUCER
        if instr.is_load:
            if entry.addr in wp_store:
                mem = encode_internal(wp_store[entry.addr])
            else:
                mem = last_store.get(entry.addr, NO_PRODUCER)
        wp.append(WrongPathInstr(entry, src1, src2, mem))
        if instr.dest is not None:
            wp_writer[instr.dest] = idx
            false_regs.add(instr.dest)
        if instr.is_store:
            wp_store[entry.addr] = idx
            false_addrs.add(entry.addr)

    return Misprediction(
        seq=seq,
        predicted_pc=wrong_pc,
        reconv_pc=reconv_pc,
        reconv_seq=None,
        wp_reached_reconv=wp_reached_reconv,
        wrong_path=wp,
        false_regs=frozenset(false_regs),
        false_addrs=frozenset(false_addrs),
    )
