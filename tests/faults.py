"""Seeded faults for the detailed core's checkers, as cycle hooks.

A checker that no fault has ever tripped is untested.  Each function
here models one class of simulator bug: it takes a seed and a trigger
(the retirement count at which the fault goes live; drawn from the seed
when ``None``) and returns a hook for ``Processor.add_cycle_hook`` that
corrupts live machine state at the end of a cycle.  Once it lands, the
hook's ``description`` attribute says what it did (``None`` until
then).  All randomness comes from ``random.Random(seed)``, so the
trigger, the victim and the corruption are reproducible from
``(seed, trigger)``.

Value faults, caught by retirement co-simulation or the watchdog:

* :func:`register_value` — flips bits in a completed instruction's
  result (the retirement value check).
* :func:`predictor_state` — scrambles gshare counters and flips the
  committed path of a resolved branch (the retirement control check).
* :func:`reconv_table` — rewrites reconvergence-table entries and skips
  a live restart's reconvergent point (the commit-time next-PC check,
  under ``strict_commit=True``).
* :func:`dropped_wakeup` — swallows one instruction's wakeups (the
  value check, or the forward-progress watchdog).

Structural faults, each built to be caught by one named invariant of
:class:`repro.analysis.MachineSanitizer` (add ``MachineSanitizer(
stride=1)`` before the fault hook):

* :func:`rob_order` — ``rob-links``;
* :func:`rename_map` — ``rename-map``;
* :func:`tag_alias` — ``broadcast-network``;
* :func:`lsq_drop` — ``lsq``.
"""

from __future__ import annotations

import random
from heapq import heapify

from repro.core import Processor
from repro.core.regfile import PhysReg
from repro.core.soa import (
    HEAD,
    REF_MASK,
    TAIL,
    ST_COMPLETED,
    ST_DEAD,
    ST_INFLIGHT,
    ST_IN_READY,
    ST_RECOVERING,
)
from repro.errors import ReproError


def run_with_hooks(program, config, golden, table, *hooks):
    """Build a processor, add ``hooks`` in order, and run it.

    Returns the stats on (unexpected) survival; a caught fault raises
    :class:`~repro.errors.CosimulationError`,
    :class:`~repro.errors.SimulationHang` or
    :class:`~repro.errors.SanitizerError`."""
    proc = Processor(program, config, golden, table)
    for hook in hooks:
        proc.add_cycle_hook(hook)
    return proc.run()


def _seeded(seed, trigger):
    rng = random.Random(seed)
    return rng, trigger if trigger is not None else rng.randrange(20, 200)


def _once(trigger, inject):
    """Hook calling ``inject(proc)`` every cycle from ``trigger`` on
    until it returns a description (the fault landed)."""

    def hook(proc):
        if hook.description is None and proc.retired_count >= trigger:
            hook.description = inject(proc)

    hook.description = None
    return hook


def register_value(seed=0, trigger=None):
    """XOR a completed, unretired result and its destination tag with a
    nonzero mask: a physical-register bit flip.  The victim is the
    oldest candidate, so it retires before a wakeup can recompute it."""
    rng, trigger = _seeded(seed, trigger)
    mask = rng.randrange(1, 1 << 16)

    def inject(proc):
        pool = proc.pool
        for h in proc.rob.iter_all():
            instr = pool.instr[h]
            if (
                pool.state[h] & ST_COMPLETED
                and not pool.state[h] & ST_DEAD
                and pool.dest_tag[h] is not None
                and not instr.is_control
                and not instr.is_store
            ):
                pool.value[h] ^= mask
                pool.dest_tag[h].value = pool.value[h]
                return f"xor {pool.describe(h)} with {mask:#x} at cycle {proc.cycle}"
        return None

    return _once(trigger, inject)


def predictor_state(seed=0, trigger=None):
    """Scramble 64 gshare counters (performance-only damage) and flip
    the committed direction of a completed in-window conditional
    branch, as if recovery had repaired the machine onto the wrong
    path."""
    rng, trigger = _seeded(seed, trigger)

    def inject(proc):
        table = proc.frontend.gshare.table
        for _ in range(min(64, len(table))):
            table[rng.randrange(len(table))] = rng.randrange(4)
        pool = proc.pool
        for h in proc.rob.iter_all():
            instr = pool.instr[h]
            if (
                instr.is_branch
                and pool.state[h] & ST_COMPLETED
                and not pool.state[h] & (ST_RECOVERING | ST_DEAD)
            ):
                taken = not pool.current_taken[h]
                pool.current_taken[h] = taken
                pool.current_next_pc[h] = instr.target if taken else pool.pc[h] + 1
                return (
                    f"flipped {pool.describe(h)} to {pool.current_next_pc[h]} "
                    f"at cycle {proc.cycle}"
                )
        return None

    return _once(trigger, inject)


def reconv_table(seed=0, trigger=None):
    """Rewrite four reconvergence-table entries to random pcs,
    then advance an active restart's live reconvergent pointer one
    instruction past the true reconvergent point, so the restart fetches
    a duplicate into the gap.  Corrupts ``proc.reconv_table`` in place:
    give each run a table of its own."""
    rng, trigger = _seeded(seed, trigger)
    rewritten = False

    def inject(proc):
        nonlocal rewritten
        table = proc.reconv_table
        if table is None or not table._reconv_pc:
            raise ReproError(
                "reconv_table needs a machine with a reconvergence table "
                "(reconv_policy=POSTDOM)"
            )
        if not rewritten:
            rewritten = True
            pcs = sorted(table._reconv_pc)
            program_len = len(proc.program.instructions)
            for pc in rng.sample(pcs, min(4, len(pcs))):
                table._reconv_pc[pc] = rng.randrange(program_len)
        # Wait, possibly several cycles, for an active restart.
        pool = proc.pool
        for ctx in proc.contexts:
            if ctx.phase == "restart" and ctx.reconv is not None:
                following = pool.next[ctx.reconv]
                if following != TAIL:
                    skipped, ctx.reconv = ctx.reconv, following
                    return (
                        f"advanced a live reconvergent pointer past "
                        f"{pool.describe(skipped)} at cycle {proc.cycle}"
                    )
        return None

    return _once(trigger, inject)


def dropped_wakeup(seed=0, trigger=None, issued=True):
    """Swallow one instruction's wakeups from the trigger on.

    ``issued=True``: the victim is the first ready-heap entry (in heap
    order) of a completed instruction waiting to reissue with a changed
    input.  The entry is removed, and the victim is kept off both source
    tags' consumer lists from then on, so it retires its stale value.
    The hook's ``dropped`` counts the removed entries and consumer refs.

    ``issued=False``: the victim is the oldest waiting instruction that
    has never issued.  It is flagged in-ready with no heap entry, so
    every wakeup skips it: it never issues and retirement wedges behind
    it."""
    _, trigger = _seeded(seed, trigger)
    return _drop_reissue(trigger) if issued else _block_first_issue(trigger)


def _drop_reissue(trigger):
    victim = None

    def hook(proc):
        nonlocal victim
        pool = proc.pool
        if victim is None:
            if proc.retired_count < trigger:
                return
            ready = proc._ready
            candidates = [
                entry
                for entry in ready
                if pool.ref[entry[2] & REF_MASK] == entry[2]
                and pool.state[entry[2] & REF_MASK] & ST_COMPLETED
                and not pool.state[entry[2] & REF_MASK] & ST_DEAD
                and pool.issue_count[entry[2] & REF_MASK] > 0
            ]
            if not candidates:
                return
            entry = min(candidates)
            ready.remove(entry)
            heapify(ready)
            victim = entry[2]
            h = victim & REF_MASK
            pool.state[h] &= ~ST_IN_READY
            hook.dropped = 1
            hook.description = (
                f"dropping wakeups of {pool.describe(h)} from cycle {proc.cycle}"
            )
        h = victim & REF_MASK
        if pool.ref[h] != victim:
            return  # the victim left the window
        for tag in (pool.src1_tag[h], pool.src2_tag[h]):
            if tag is not None and victim in tag.consumers:
                tag.consumers = [r for r in tag.consumers if r != victim]
                hook.dropped += 1

    hook.description = None
    hook.dropped = 0
    return hook


def _block_first_issue(trigger):
    def inject(proc):
        pool = proc.pool
        state = pool.state
        for h in proc.rob.iter_all():
            if pool.issue_count[h] == 0 and not state[h] & (ST_DEAD | ST_IN_READY):
                state[h] |= ST_IN_READY
                return f"blocked {pool.describe(h)} at cycle {proc.cycle}"
        return None

    return _once(trigger, inject)


def rob_order(seed=0, trigger=None):
    """Swap the order keys of the two youngest window nodes, so the
    links disagree with the order the keys encode.  Taken from the tail
    so neither retires before the next check."""
    _, trigger = _seeded(seed, trigger)

    def inject(proc):
        pool = proc.pool
        younger = proc.rob.tail
        if younger is None or pool.prev[younger] == HEAD:
            return None
        older = pool.prev[younger]
        order = pool.order
        order[older], order[younger] = order[younger], order[older]
        return (
            f"swapped the order keys of {pool.describe(older)} and "
            f"{pool.describe(younger)} at cycle {proc.cycle}"
        )

    return _once(trigger, inject)


def rename_map(seed=0, trigger=None):
    """Repoint a frontier rename-map entry at a stale register (a
    dropped map update).  Only with no recovery context active, where
    the frontier map is fully determined by the commit-side map and the
    window's destination tags."""
    rng, trigger = _seeded(seed, trigger)

    def inject(proc):
        if proc.contexts:
            return None
        arch = rng.randrange(1, len(proc.frontier.rmap))
        stale = PhysReg()
        stale.ready = True
        proc.frontier.rmap[arch] = stale
        return f"repointed r{arch} at a stale tag at cycle {proc.cycle}"

    return _once(trigger, inject)


def tag_alias(seed=0, trigger=None):
    """Give the two youngest tag-writing window nodes one destination
    tag, breaking the broadcast network's single-writer rule."""
    _, trigger = _seeded(seed, trigger)

    def inject(proc):
        pool = proc.pool
        victims = []
        node = proc.rob.tail
        while node is not None and node != HEAD and len(victims) < 2:
            if pool.dest_tag[node] is not None:
                victims.append(node)
            node = pool.prev[node]
        if len(victims) < 2:
            return None
        younger, older = victims
        pool.dest_tag[younger] = pool.dest_tag[older]
        return (
            f"aliased the dest tag of {pool.describe(younger)} onto "
            f"{pool.describe(older)} at cycle {proc.cycle}"
        )

    return _once(trigger, inject)


def lsq_drop(seed=0, trigger=None):
    """Drop a never-issued store from the LSQ's unresolved-store subset
    through the LSQ's own removal path, so younger loads and branches
    proceed against it.  Never issued, the store cannot leave the
    subset legitimately before the next check."""
    _, trigger = _seeded(seed, trigger)

    def inject(proc):
        pool = proc.pool
        for h in proc.lsq._unresolved_stores:
            if (
                not pool.state[h] & (ST_COMPLETED | ST_INFLIGHT)
                and pool.issue_count[h] == 0
            ):
                proc.lsq.store_resolved(h)
                return (
                    f"dropped {pool.describe(h)} from the unresolved subset "
                    f"at cycle {proc.cycle}"
                )
        return None

    return _once(trigger, inject)
