"""Deterministic, seedable fault injectors for the detailed core.

Each injector models one class of simulator bug and corrupts live
machine state mid-run through the processor's per-cycle hook:

* :class:`RegisterValueFault` — flips bits in a completed, unretired
  instruction's result (physical register file corruption).  Detected by
  the retirement value check.
* :class:`PredictorStateFault` — corrupts gshare counters *and* flips
  the committed path of a resolved in-window branch (the predictor-
  derived state that recovery is supposed to have repaired).  Detected
  by the retirement control-target check.
* :class:`ReconvTableFault` — rewrites reconvergence-table entries to
  wrong PCs, producing mis-spliced restarts.  Detected by the
  commit-time next-PC sequence check (run the machine with
  ``strict_commit=True``: under exact post-dominator information a
  sequence repair is by definition a reconvergence bug).
* :class:`DroppedWakeupFault` — swallows a victim instruction's reissue
  wakeups, so it retires a stale value (detected by the value check) or
  never completes (detected by the forward-progress watchdog).

A second family corrupts the *structural* state views cross-checked by
the machine-invariant sanitizer (``REPRO_SANITIZE=1`` /
:class:`repro.analysis.MachineSanitizer`); each is built to be caught by
one named invariant, so the sanitizer's localization can be asserted:

* :class:`ROBOrderFault` — swaps the order keys of two adjacent window
  nodes (``sanitizer[rob-links]``).
* :class:`RenameMapFault` — repoints a frontier rename-map entry at a
  stale physical register (``sanitizer[rename-map]``).
* :class:`TagAliasFault` — makes two in-flight instructions share one
  destination tag (``sanitizer[broadcast-network]``).
* :class:`LSQDropFault` — drops an unissued store from the LSQ's
  unresolved-store subset (``sanitizer[lsq]``).

All randomness comes from a seeded :class:`random.Random`, so every
injection — trigger point, victim, corruption mask — is reproducible
from ``(seed, trigger)`` alone.
"""

from __future__ import annotations

import random

from ..cfg import ReconvergenceTable
from ..core import CoreConfig, CoreStats, GoldenTrace, Processor
from ..core.soa import (
    HEAD,
    REF_SHIFT,
    TAIL,
    ST_COMPLETED,
    ST_DEAD,
    ST_INFLIGHT,
    ST_RECOVERING,
)
from ..errors import ReproError
from ..isa import Program


class FaultInjector:
    """Base injector: arms a per-cycle hook, fires once at a trigger.

    ``trigger_retired`` is the retirement count at which the fault goes
    live; the injector then corrupts state at the first cycle where a
    suitable victim exists and records what it did in ``description``.
    """

    kind = "generic"

    def __init__(self, seed: int = 0, trigger_retired: int | None = None):
        self.rng = random.Random(seed)
        self.trigger_retired = (
            trigger_retired
            if trigger_retired is not None
            else self.rng.randrange(20, 200)
        )
        self.fired = False
        self.description: str | None = None

    def arm(self, processor: Processor) -> None:
        """Attach this injector to a processor before ``run()``."""
        processor.add_cycle_hook(self._on_cycle)

    def _on_cycle(self, proc: Processor) -> None:
        if self.fired or proc.retired_count < self.trigger_retired:
            return
        if self._inject(proc):
            self.fired = True

    def _inject(self, proc: Processor) -> bool:
        """Attempt one corruption; return True when it landed."""
        raise NotImplementedError


class RegisterValueFault(FaultInjector):
    """Corrupt the result of a completed, unretired instruction.

    Models a physical-register-file bit flip: both the in-flight node's
    value and its destination tag are XORed with a nonzero mask, so the
    wrong value is what retirement sees.  Victims are taken from the
    window head so they retire before any wakeup can recompute them.
    """

    kind = "register-value"

    def __init__(self, seed: int = 0, trigger_retired: int | None = None):
        super().__init__(seed, trigger_retired)
        self.mask = self.rng.randrange(1, 1 << 16)

    def _inject(self, proc: Processor) -> bool:
        pool = proc.pool
        state = pool.state
        for h in proc.rob.iter_all():
            instr = pool.instr[h]
            if (
                state[h] & ST_COMPLETED
                and not state[h] & ST_DEAD
                and pool.dest_tag[h] is not None
                and not instr.is_control
                and not instr.is_store
            ):
                pool.value[h] ^= self.mask
                pool.dest_tag[h].value = pool.value[h]
                self.description = (
                    f"xor value of pc {pool.pc[h]} (uid {pool.ref[h] >> REF_SHIFT}) "
                    f"with {self.mask:#x} at cycle {proc.cycle}"
                )
                return True
        return False


class PredictorStateFault(FaultInjector):
    """Corrupt predictor state, including resolved branch-path state.

    Scrambles a swath of gshare counters (performance-only damage, as in
    real hardware) and — the architecturally dangerous part — flips the
    committed direction of a completed in-window conditional branch, as
    if recovery had repaired the machine onto the wrong path.  The
    retirement control-target check must refuse to commit it.
    """

    kind = "predictor-state"

    def _inject(self, proc: Processor) -> bool:
        table = proc.frontend.gshare.table
        for _ in range(min(64, len(table))):
            table[self.rng.randrange(len(table))] = self.rng.randrange(4)
        pool = proc.pool
        state = pool.state
        for h in proc.rob.iter_all():
            instr = pool.instr[h]
            if (
                instr.is_branch
                and state[h] & ST_COMPLETED
                and not state[h] & (ST_RECOVERING | ST_DEAD)
            ):
                taken = not pool.current_taken[h]
                pool.current_taken[h] = taken
                pool.current_next_pc[h] = (
                    instr.target if taken else pool.pc[h] + 1
                )
                self.description = (
                    f"flipped committed path of branch pc {pool.pc[h]} "
                    f"(uid {pool.ref[h] >> REF_SHIFT}) to {pool.current_next_pc[h]} "
                    f"at cycle {proc.cycle}"
                )
                return True
        return False


class ReconvTableFault(FaultInjector):
    """Corrupt reconvergence-table entries and in-flight reconv state.

    Rewrites ``entries`` table entries to random bogus PCs (future
    recoveries splice at wrong points; the machine's recovery-driven
    refetch masks many of these) and, decisively, advances the live
    reconvergent pointer of an active restart sequence one instruction
    past the true reconvergence point — the restart then fetches a
    duplicate of the reconvergent instruction into the gap.  Run the
    machine with ``strict_commit=True`` (exact-postdom machines): the
    commit-time next-PC check escalates the mis-splice to a
    ``CosimulationError`` instead of silently repairing it.
    """

    kind = "reconv-table"

    def __init__(
        self, seed: int = 0, trigger_retired: int | None = None, entries: int = 4
    ):
        super().__init__(seed, trigger_retired)
        self.entries = entries
        self._table_rewritten = False

    def _inject(self, proc: Processor) -> bool:
        table = proc.reconv_table
        if table is None or not table._reconv_pc:
            raise ReproError(
                "ReconvTableFault needs a machine with a reconvergence table "
                "(reconv_policy=POSTDOM)"
            )
        if not self._table_rewritten:
            self._table_rewritten = True
            pcs = sorted(table._reconv_pc)
            program_len = len(proc.program.instructions)
            for pc in self.rng.sample(pcs, min(self.entries, len(pcs))):
                table._reconv_pc[pc] = self.rng.randrange(program_len)
        # Wait (possibly several cycles) for an active restart whose live
        # reconvergent pointer we can corrupt.
        pool = proc.pool
        for ctx in proc.contexts:
            if ctx.phase == "restart" and ctx.reconv is not None:
                skipped = ctx.reconv
                following = pool.next[skipped]
                if following != TAIL:
                    ctx.reconv = following
                    self.description = (
                        f"advanced live reconvergent pointer past pc "
                        f"{pool.pc[skipped]} to pc {pool.pc[following]} "
                        f"at cycle {proc.cycle} (plus table rewrite)"
                    )
                    return True
        return False


class DroppedWakeupFault(FaultInjector):
    """Swallow one instruction's wakeups mid-run.

    Intercepts the processor's wakeup path; after the trigger, the
    ``drop_index``-th eligible wakeup selects the victim, and every
    wakeup for that victim from then on is dropped.  With
    ``require_issued=True`` (default) the victim is an instruction that
    already issued and must recompute with better operands — it retires
    a stale value, caught by the retirement value check.  With
    ``require_issued=False`` the victim never issues at all: retirement
    wedges behind it and the forward-progress watchdog reports the
    livelock.
    """

    kind = "dropped-wakeup"

    def __init__(
        self,
        seed: int = 0,
        trigger_retired: int | None = None,
        drop_index: int = 0,
        require_issued: bool = True,
    ):
        super().__init__(seed, trigger_retired)
        self.drop_index = drop_index
        self.require_issued = require_issued
        self.victim_ref: int | None = None
        self.dropped = 0
        self._seen = 0

    def arm(self, processor: Processor) -> None:
        super().arm(processor)
        original = processor._wake
        pool = processor.pool

        def _wake(h, eligible):
            if self.fired:
                if pool.ref[h] == self.victim_ref:
                    self.dropped += 1
                    return
            elif processor.retired_count >= self.trigger_retired and (
                (pool.issue_count[h] > 0) == self.require_issued
            ):
                if self._seen == self.drop_index:
                    self.fired = True
                    self.victim_ref = pool.ref[h]
                    self.dropped = 1
                    self.description = (
                        f"dropping wakeups of pc {pool.pc[h]} "
                        f"(uid {self.victim_ref >> REF_SHIFT}) "
                        f"from cycle {processor.cycle}"
                    )
                    return
                self._seen += 1
            original(h, eligible)

        # Instance attribute shadows the bound class method for self-calls.
        processor._wake = _wake

    def _inject(self, proc: Processor) -> bool:
        return self.fired  # the real work happens in the _wake wrapper


class ROBOrderFault(FaultInjector):
    """Swap the order keys of two adjacent alive window nodes.

    The doubly-linked list then disagrees with the logical order the
    keys encode — age comparisons and LSQ ordering consult those keys.  Victims are taken from the window *tail* so
    neither retires before the next sanitizer check.  Caught by
    ``sanitizer[rob-links]`` (order keys not strictly increasing).
    """

    kind = "rob-order"

    def _inject(self, proc: Processor) -> bool:
        pool = proc.pool
        younger = proc.rob.tail
        if younger is None:
            return False
        older = pool.prev[younger]
        if older == HEAD:
            return False
        order_col = pool.order
        order_col[older], order_col[younger] = (
            order_col[younger],
            order_col[older],
        )
        self.description = (
            f"swapped order keys of pcs {pool.pc[older]}/{pool.pc[younger]} "
            f"(uids {pool.ref[older] >> REF_SHIFT}/"
            f"{pool.ref[younger] >> REF_SHIFT}) "
            f"at cycle {proc.cycle}"
        )
        return True


class RenameMapFault(FaultInjector):
    """Repoint a frontier rename-map entry at a stale physical register.

    Models a dropped map update: later consumers of the register would
    silently read the wrong producer.  Injected only in a quiet state
    (no active recovery contexts), where the frontier map is fully
    determined by the commit-side map and the window's destination tags.
    Caught by ``sanitizer[rename-map]``.
    """

    kind = "rename-map"

    def _inject(self, proc: Processor) -> bool:
        if proc.contexts:
            return False
        from ..core.regfile import PhysReg

        arch = self.rng.randrange(1, len(proc.frontier.rmap))
        stale = PhysReg()
        stale.ready = True
        proc.frontier.rmap[arch] = stale
        self.description = (
            f"repointed frontier rename map of r{arch} at a stale tag "
            f"at cycle {proc.cycle}"
        )
        return True


class TagAliasFault(FaultInjector):
    """Make two in-flight instructions share one destination tag.

    Violates the single-writer rule of the broadcast network: whichever
    aliased producer completes last wins the register, silently crossing
    dependence chains.  Victims are the two youngest tag-writing nodes
    (far from retirement).  Caught by ``sanitizer[broadcast-network]``.
    """

    kind = "tag-alias"

    def _inject(self, proc: Processor) -> bool:
        pool = proc.pool
        dest_tag = pool.dest_tag
        prev_col = pool.prev
        victims = []
        node = proc.rob.tail
        while node is not None and node != HEAD:
            if dest_tag[node] is not None:
                victims.append(node)
                if len(victims) == 2:
                    break
            node = prev_col[node]
        if len(victims) < 2:
            return False
        younger, older = victims
        dest_tag[younger] = dest_tag[older]
        self.description = (
            f"aliased dest tag of pc {pool.pc[younger]} "
            f"(uid {pool.ref[younger] >> REF_SHIFT}) onto pc {pool.pc[older]} "
            f"(uid {pool.ref[older] >> REF_SHIFT}) at cycle {proc.cycle}"
        )
        return True


class LSQDropFault(FaultInjector):
    """Drop an unissued store from the LSQ's unresolved-store subset.

    The branch-completion gate and load-ahead logic scan only that
    subset, so the machine believes the store's address is resolved and
    lets younger loads and branches proceed against it.  The drop goes
    through :meth:`~repro.core.lsq.LoadStoreQueue.store_resolved`, the
    LSQ's own removal path.  The victim has not issued, so it cannot
    complete (and legitimately leave the subset) before the next
    sanitizer check.  Caught by ``sanitizer[lsq]``.
    """

    kind = "lsq-drop"

    def _inject(self, proc: Processor) -> bool:
        pool = proc.pool
        state = pool.state
        for h in proc.lsq._unresolved_stores:
            if (
                not state[h] & (ST_COMPLETED | ST_INFLIGHT)
                and pool.issue_count[h] == 0
            ):
                proc.lsq.store_resolved(h)
                self.description = (
                    f"dropped store pc {pool.pc[h]} "
                    f"(uid {pool.ref[h] >> REF_SHIFT}) from the "
                    f"unresolved subset at cycle {proc.cycle}"
                )
                return True
        return False


def run_with_fault(
    program: Program,
    config: CoreConfig,
    fault: FaultInjector,
    golden: GoldenTrace | None = None,
    reconv_table: ReconvergenceTable | None = None,
) -> CoreStats:
    """Build a processor, arm ``fault``, and run to completion.

    Returns the stats on (unexpected) survival; the interesting outcome
    for tests is the :class:`~repro.errors.CosimulationError` /
    :class:`~repro.errors.SimulationHang` this raises when the checkers
    catch the corruption.
    """
    proc = Processor(program, config, golden, reconv_table)
    fault.arm(proc)
    return proc.run()


__all__ = [
    "DroppedWakeupFault",
    "FaultInjector",
    "LSQDropFault",
    "PredictorStateFault",
    "ROBOrderFault",
    "ReconvTableFault",
    "RegisterValueFault",
    "RenameMapFault",
    "TagAliasFault",
    "run_with_fault",
]
