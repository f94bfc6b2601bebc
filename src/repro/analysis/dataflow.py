"""Register dataflow analyses over :class:`~repro.cfg.ControlFlowGraph`.

Three classic bit-vector analyses specialised to the toy ISA, shared by
the workload lint:

* **Reaching definitions** (forward, may): which definition sites can
  reach each block entry.  Every register carries a pseudo-definition
  :data:`UNINIT` at the program entry, so "a use reached by ``UNINIT``"
  is exactly "may be read before ever being written".  Blocks entered
  only through a ``call`` (callee bodies — calls are fall-through edges
  in the CFG) instead start from :data:`EXTERNAL`: the caller's context
  is unknown, so every register is conservatively considered defined.
  Symmetrically, a ``call`` *may define* every register (the callee's
  effects are invisible across the fall-through edge), so its pc joins
  every register's definition sites without killing them.
* **Liveness** (backward, may): which registers may still be read after
  each block.  Return blocks (``jr``) conservatively treat every
  register as live-out — values flow back to an unknown caller — and a
  ``call`` *may use* every register (callee arguments) — while
  ``halt`` and fall-off-end blocks kill everything, which is what makes
  dead-write detection possible at all.
* **Definition points** per instruction, derived during the block walks,
  so the lint can anchor diagnostics to exact pcs.

All analyses operate on register *numbers*; writes to r0 are discarded
by the machine (``Instruction.dest`` is ``None``) and never count as
definitions, and r0 is always considered defined and never live.
"""

from __future__ import annotations

from ..cfg import ControlFlowGraph
from ..isa import NUM_REGS

#: pseudo-definition pc: "never written on some path from program entry"
UNINIT = -1
#: pseudo-definition pc: "defined by an unknown caller context"
EXTERNAL = -2

_ALL_REGS = frozenset(range(NUM_REGS))


def _block_def_gen(cfg: ControlFlowGraph):
    """Per block: (registers surely defined, {reg: generated def pcs}).

    A real write kills prior sites and generates its own pc; a ``call``
    generates its pc for *every* register without killing (the callee
    may or may not write any given one).
    """
    defs: list[frozenset[int]] = []
    gen: list[dict[int, set[int]]] = []
    program = cfg.program
    for block in cfg.blocks:
        killed: set[int] = set()
        sites: dict[int, set[int]] = {}
        for pc in range(block.start, block.end):
            instr = program[pc]
            if instr.is_call:
                for reg in range(1, NUM_REGS):
                    sites.setdefault(reg, set()).add(pc)
            dest = instr.dest
            if dest is not None:
                killed.add(dest)
                sites[dest] = {pc}
        defs.append(frozenset(killed))
        gen.append(sites)
    return defs, gen


def reaching_definitions(cfg: ControlFlowGraph) -> list[dict[int, frozenset[int]]]:
    """Reaching-definition sites at each block entry.

    Returns, per block, ``{register: frozenset of definition pcs}``
    where pcs include the :data:`UNINIT` / :data:`EXTERNAL` pseudo-sites.
    Unreachable blocks get empty maps (the lint reports them separately).
    """
    n = len(cfg.blocks)
    defs, gen = _block_def_gen(cfg)
    roots = cfg.analysis_roots()
    entry_block = cfg.block_at(cfg.program.entry).index

    in_sets: list[dict[int, set[int]]] = [{} for _ in range(n)]
    for root in roots:
        state = in_sets[root]
        for reg in range(1, NUM_REGS):
            seed = UNINIT if root == entry_block else EXTERNAL
            state.setdefault(reg, set()).add(seed)
        state.setdefault(0, set()).add(EXTERNAL)  # r0 is hardwired

    def flow_out(index: int) -> dict[int, set[int]]:
        out = {reg: set(sites) for reg, sites in in_sets[index].items()}
        for reg, sites in gen[index].items():
            if reg in defs[index]:
                out[reg] = set(sites)
            else:
                out.setdefault(reg, set()).update(sites)
        return out

    worklist = list(roots)
    reached = set(roots)
    while worklist:
        index = worklist.pop()
        out = flow_out(index)
        for succ in cfg.blocks[index].successors:
            target = in_sets[succ]
            changed = succ not in reached
            reached.add(succ)
            for reg, sites in out.items():
                bucket = target.setdefault(reg, set())
                if not sites <= bucket:
                    bucket |= sites
                    changed = True
            if changed:
                worklist.append(succ)
    return [
        {reg: frozenset(sites) for reg, sites in state.items()}
        for state in in_sets
    ]


def liveness(cfg: ControlFlowGraph) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Backward liveness; returns (live_in, live_out) per block."""
    n = len(cfg.blocks)
    program = cfg.program
    defs, _ = _block_def_gen(cfg)

    # Upward-exposed uses per block.
    ueu: list[set[int]] = []
    for block in cfg.blocks:
        defined: set[int] = set()
        uses: set[int] = set()
        for pc in range(block.start, block.end):
            instr = program[pc]
            uses |= set(instr.sources) - defined
            if instr.is_call:
                # The callee may read any register (arguments).
                uses |= _ALL_REGS - defined
            dest = instr.dest
            if dest is not None:
                defined.add(dest)
        uses.discard(0)
        ueu.append(uses)

    # Exit-boundary live-out: returns feed an unknown caller.
    boundary: list[set[int]] = []
    for block in cfg.blocks:
        if block.successors:
            boundary.append(set())
        elif program[block.last_pc].is_indirect:
            boundary.append(set(_ALL_REGS) - {0})
        else:
            boundary.append(set())

    live_in = [set() for _ in range(n)]
    live_out = [set(b) for b in boundary]
    changed = True
    while changed:
        changed = False
        for index in range(n - 1, -1, -1):
            out = set(boundary[index])
            for succ in cfg.blocks[index].successors:
                out |= live_in[succ]
            new_in = ueu[index] | (out - defs[index])
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return (
        [frozenset(s) for s in live_in],
        [frozenset(s) for s in live_out],
    )


def instruction_uses_of_undefined(
    cfg: ControlFlowGraph,
) -> list[tuple[int, int, bool]]:
    """Uses possibly reached by :data:`UNINIT`.

    Returns ``(pc, register, definite)`` triples: ``definite`` means no
    real definition reaches the use on *any* path (reads architectural
    zero always), otherwise only some path skips the definition.
    Unreachable blocks are skipped — they get their own diagnostic.
    """
    out: list[tuple[int, int, bool]] = []
    reach_in = reaching_definitions(cfg)
    reachable = cfg.reachable_blocks()
    program = cfg.program
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        state = {reg: set(sites) for reg, sites in reach_in[block.index].items()}
        for pc in range(block.start, block.end):
            instr = program[pc]
            for reg in instr.sources:
                if reg == 0:
                    continue
                sites = state.get(reg, set())
                if UNINIT in sites:
                    definite = not any(site >= 0 for site in sites)
                    out.append((pc, reg, definite))
            if instr.is_call:
                for reg in range(1, NUM_REGS):
                    state.setdefault(reg, set()).add(pc)
            dest = instr.dest
            if dest is not None:
                state[dest] = {pc}
    return out


def dead_writes(cfg: ControlFlowGraph) -> list[tuple[int, int]]:
    """Definitions whose value is never read: ``(pc, register)`` pairs.

    A write is dead when its register is not live immediately after the
    defining instruction.  Unreachable blocks are skipped.
    """
    out: list[tuple[int, int]] = []
    _, live_out = liveness(cfg)
    reachable = cfg.reachable_blocks()
    program = cfg.program
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        live = set(live_out[block.index])
        for pc in range(block.end - 1, block.start - 1, -1):
            instr = program[pc]
            dest = instr.dest
            if dest is not None:
                # A call's link-register write is consumed by the callee's
                # return, which the CFG does not connect to the call site;
                # it is never reportable as dead.
                if dest not in live and not instr.is_call:
                    out.append((pc, dest))
                live.discard(dest)
            if instr.is_call:
                live |= _ALL_REGS - {0}
            live |= set(instr.sources)
    out.reverse()
    return out
