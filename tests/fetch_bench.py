"""A detailed core driven one instruction at a time, for the reorder
buffer and instruction-pool unit tests.

The core has one dispatch path, the sequencer's fetch loop
(``SequencerStage._fetch``), which claims, links and keys each slot in
place, and one squash path (``RecoveryStage._squash_after``), which
unlinks a range through ``ReorderBuffer.unlink``.  These helpers drive
both directly over a straight-line program of NOPs, so a test can append
at the window tail, insert right after any slot the way a restart
sequence does, and squash any slot, with a chosen uid, pc and cycle.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core import CoreConfig, GoldenTrace, Processor, ReconvPolicy
from repro.core.stages.sequencer import _Context
from repro.core.soa import TAIL
from repro.isa import Instruction, Op, Program

#: NOPs in the bench program: every pc a test uses must be below this
PROGRAM_NOPS = 20_000


@lru_cache(maxsize=None)
def _program() -> tuple[Program, GoldenTrace]:
    program = Program(
        [Instruction(Op.NOP)] * PROGRAM_NOPS + [Instruction(Op.HALT)]
    )
    return program, GoldenTrace(program)


def bench(window: int, segment_size: int = 1) -> Processor:
    """A machine with a ``window``-entry ROB that has fetched nothing."""
    program, golden = _program()
    config = CoreConfig(
        window_size=window,
        segment_size=segment_size,
        reconv_policy=ReconvPolicy.NONE,
    )
    return Processor(program, config, golden)


def dispatch(
    proc: Processor,
    uid: int,
    after: int | None = None,
    pc: int | None = None,
    cycle: int = 0,
) -> int:
    """Fetch one NOP (uid ``uid``, pc ``pc``, default the uid) at the
    window tail, or right after slot ``after`` as a restart inserts into
    its gap (its reconvergent point the slot that follows ``after``), and
    return its pool handle."""
    pc = uid if pc is None else pc
    proc.uid_counter = uid
    proc.cycle = cycle
    if after is None:
        ctx = proc.frontier
    else:
        ctx = _Context(pc, 0, proc.frontier.rmap)
        ctx.phase = "restart"
        ctx.insert_point = after
        ctx.reconv = proc.pool.next[after]
    ctx.fetch_pc = pc
    ctx.stalled = False
    proc._fetch(ctx, budget=1)
    assert proc.uid_counter == uid + 1, "fetch dispatched nothing"
    return proc.pool.prev[TAIL] if after is None else ctx.insert_point


def squash(proc: Processor, h: int) -> None:
    """Squash the one slot ``h`` through the core's squash path."""
    pool = proc.pool
    proc._squash_after(pool.prev[h], pool.next[h])
