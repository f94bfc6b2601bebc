"""Frontend/sequencer stage: fetch, rename, predict, context management.

The sequencer owns the machine's notion of "where fetch goes next": the
frontier context during normal operation, and a stack of restart /
redispatch contexts while mispredictions are being serviced (paper
Sections 3.2, 4.1; Appendix A.1).  Dispatch allocates a pool slot,
renames through the active context's map and links the slot into the
reorder buffer either at the tail (frontier) or into a restart gap.
Context fields that name instructions (``branch``, ``reconv``,
``insert_point``, ``walk_cursor``) hold pool handles that are always
live or None: every squash path prunes/repairs contexts before the next
allocation can recycle a slot (the redispatch walk cursor is advanced
eagerly at squash time — see ``RecoveryStage._squash_node``).
"""

from __future__ import annotations

from heapq import heappush

from ...ideal.models import WIDTH
from ...isa import Op
from ..regfile import PhysReg
from ..rob import Segment
from ..soa import ST_IN_READY


class _Context:
    """A fetch context: the frontier, or one restart/redispatch sequence."""

    __slots__ = (
        "branch",
        "reconv",
        "insert_point",
        "fetch_pc",
        "ghr",
        "rmap",
        "segment",
        "stalled",
        "phase",  # "frontier" | "restart" | "redispatch"
        "walk_cursor",
        "walk_ras",
        "start_cycle",
        "inserted",
    )

    def __init__(self, fetch_pc: int, ghr: int, rmap: list):
        self.branch: int | None = None
        self.reconv: int | None = None
        self.insert_point: int | None = None
        self.fetch_pc = fetch_pc
        self.ghr = ghr
        self.rmap = rmap
        self.segment: Segment | None = None
        self.stalled = False
        self.phase = "frontier"
        self.walk_cursor: int | None = None
        self.walk_ras: list[int] | None = None
        self.start_cycle = 0
        self.inserted = 0


class SequencerStage:
    """Fetch/dispatch methods mixed into the Processor facade."""

    # ==================================================================
    # dispatch

    def _dispatch(self, ctx: _Context, pc: int) -> int | None:
        """Fetch + rename one instruction into ``ctx``; returns the pool
        handle, or None when fetch must stall (HALT reached / out of
        range)."""
        # Inlined Program.fetch: one bounds check + list index per
        # dispatched instruction (wrong-path fetch off the end of the
        # program is an implicit HALT).
        if 0 <= pc < self._code_len:
            instr = self._code[pc]
        else:
            ctx.stalled = True
            return None
        pool = self.pool
        uid = self.uid_counter
        self.uid_counter = uid + 1
        cycle = self.cycle
        if ctx.phase == "frontier":
            h = self.rob.claim(uid, pc, instr, cycle, None, ctx.segment)
        else:
            h = self.rob.claim(
                uid, pc, instr, cycle, ctx.insert_point, ctx.segment
            )
            ctx.insert_point = h
            ctx.inserted += 1
        ctx.segment = pool.segment[h]
        self.stats.fetched += 1
        self._map_epoch += 1

        # Rename.  All four rename columns are written for every
        # instruction (None where unused): the claim leaves them to
        # dispatch.
        rmap = ctx.rmap
        node_ref = pool.ref[h]
        if instr.reads_rs1:
            t1 = rmap[instr.rs1]
            t1.consumers.append(node_ref)
        else:
            t1 = None
        if instr.reads_rs2:
            t2 = rmap[instr.rs2]
            t2.consumers.append(node_ref)
        else:
            t2 = None
        pool.src1_tag[h] = t1
        pool.src2_tag[h] = t2
        dest = instr.dest
        pool.dest_arch[h] = dest
        if dest is not None:
            tag = PhysReg(node_ref)
            rmap[dest] = tag
            pool.dest_tag[h] = tag
        else:
            pool.dest_tag[h] = None

        if instr.is_mem:
            self.lsq.add(h)

        if instr.is_control:
            self._predict_control(ctx, h)
            ctx.fetch_pc = pool.current_next_pc[h]
            if instr.is_branch or instr.is_indirect:
                self._incomplete_branches[uid] = h
                if self._oldest_gate_valid:
                    oldest = self._oldest_gate
                    orders = pool.order
                    if oldest is None or orders[h] < orders[oldest]:
                        self._oldest_gate = h
        else:
            ctx.fetch_pc = pc + 1
            if instr.op is Op.HALT:
                ctx.stalled = True

        # Ready bookkeeping: issue no earlier than fetch + 2 (dispatch
        # stage); a fresh slot is never already in the heap, so the
        # _push_ready guard is inlined away.
        if (t1 is None or t1.ready) and (t2 is None or t2.ready):
            pool.state[h] |= ST_IN_READY
            orders = pool.order
            uids = pool.uid
            heappush(self._ready, (cycle + 2, orders[h], uids[h], h))
        return h

    def _predict_control(self, ctx: _Context, h: int) -> None:
        cfg = self.config
        frontend = self.frontend
        pool = self.pool
        pool.ras_snapshot[h] = frontend.ras.snapshot()
        history = ctx.ghr
        instr = pool.instr[h]
        pc = pool.pc[h]
        if instr.is_branch:
            # Conditional-branch fast path: one gshare table read and an
            # in-place history push — the FrontEnd.predict dispatch chain
            # and its Prediction wrapper are pure overhead for the most
            # common control instruction.
            if cfg.oracle_global_history:
                entry_index = self._golden_index(h)
                if 0 <= entry_index < len(self.golden.history_before):
                    history = self.golden.history_before[entry_index]
            pool.history_used[h] = history
            gshare = frontend.gshare
            taken = gshare.table[(pc ^ history) & gshare._index_mask] >= 2
            next_pc = instr.target if taken else pc + 1
            pool.predicted_next_pc[h] = next_pc
            pool.current_taken[h] = taken
            pool.current_next_pc[h] = next_pc
            ctx.ghr = ((ctx.ghr << 1) | (1 if taken else 0)) & gshare.history.mask
            if instr.target <= pc:
                # Backward branch: remember loop top / loop exit targets.
                self._loop_targets.add(next_pc)
            return
        pool.history_used[h] = history
        prediction = frontend.predict(instr, pc, history)
        pool.predicted_next_pc[h] = prediction.next_pc
        pool.current_taken[h] = prediction.taken
        pool.current_next_pc[h] = prediction.next_pc
        if instr.is_return:
            self._return_targets.add(prediction.next_pc)

    # ==================================================================
    # sequencer: restart fetch, redispatch walk, frontier fetch

    def _sequencer_phase(self) -> None:
        if self.contexts:
            ctx = self._active_context()
            if ctx is not self._last_active or self._needs_remap:
                self._reactivate(ctx)
                self._last_active = ctx
                self._needs_remap = False
            if ctx.phase == "restart":
                self._restart_fetch(ctx)
            if ctx is self._active_context() and ctx.phase == "redispatch":
                self._redispatch_walk(ctx)
            return
        self._last_active = None
        self._frontier_fetch()

    def _reactivate(self, ctx: _Context) -> None:
        """A context gained control of the sequencer: rebuild its rename
        map and global-history register, since recoveries serviced in
        between may have squashed, remapped or re-predicted instructions
        its captured state depends on."""
        from ..soa import TAIL, HEAD

        if ctx.phase == "restart":
            ctx.rmap = self._map_after(ctx.insert_point)
            ctx.ghr = self._history_up_to(ctx, ctx.insert_point, inclusive=True)
        elif ctx.phase == "redispatch":
            # The walk cursor is advanced eagerly whenever its slot is
            # squashed (see _squash_node), so it is always live or TAIL.
            cursor = ctx.walk_cursor
            if cursor == TAIL:
                ctx.walk_cursor = TAIL
                tail = self.rob.tail
                ctx.rmap = self._map_after(tail if tail is not None else HEAD)
            else:
                ctx.walk_cursor = cursor
                ctx.rmap = self._map_after(self.pool.prev[cursor])
                ctx.ghr = self._history_up_to(ctx, cursor, inclusive=False)

    def _frontier_fetch(self) -> None:
        ctx = self.frontier
        if ctx.stalled:
            return
        budget = WIDTH
        fetched_before = self.stats.fetched
        rob = self.rob
        window = rob.window_size
        dispatch = self._dispatch
        if rob.segment_size == 1:
            # slots_used == count: test the counter directly instead of
            # paying two property calls per fetched instruction.
            while budget > 0 and rob.count < window and not ctx.stalled:
                if dispatch(ctx, ctx.fetch_pc) is None:
                    break
                budget -= 1
        else:
            while budget > 0 and not rob.full and not ctx.stalled:
                if dispatch(ctx, ctx.fetch_pc) is None:
                    break
                budget -= 1
        if self.stats.fetched != fetched_before:
            self.stats.stage_fetch_cycles += 1

    def _restart_fetch(self, ctx: _Context) -> None:
        pool = self.pool
        if ctx.reconv is not None and not pool.is_alive(ctx.reconv):
            ctx.reconv = None
        if ctx.reconv is None:
            # The reconvergent point is gone: this restart is simply the
            # window tail, so it continues as the frontier.
            self._context_to_frontier(ctx)
            return
        budget = WIDTH
        pc_col = pool.pc
        while budget > 0:
            if ctx.reconv is not None and ctx.fetch_pc == pc_col[ctx.reconv]:
                self._finish_restart(ctx)
                return
            if ctx.stalled:
                self._finish_restart(ctx)  # ran off the program: give up
                return
            if self.rob.full:
                if not self._squash_youngest_ci(ctx):
                    return  # cannot make room this cycle
                continue
            if self._dispatch(ctx, ctx.fetch_pc) is None:
                self._finish_restart(ctx)
                return
            budget -= 1
        if ctx.reconv is not None and ctx.fetch_pc == pc_col[ctx.reconv]:
            self._finish_restart(ctx)

    def _squash_youngest_ci(self, ctx: _Context) -> bool:
        """Make room for a restart by squashing the youngest instruction
        (paper Sec 3.2.2).  Returns False if nothing can be squashed.

        The frontier is backed up to the victim so it is refetched after
        the restart/redispatch completes (whose final walk map becomes
        the frontier map, keeping renaming consistent)."""
        victim = self.rob.tail
        if victim is None:
            return False
        if victim == ctx.insert_point or victim == ctx.branch:
            return False  # would eat the restart being serviced
        self.stats.squashed_ci_for_restart += 1
        # Back the frontier up so the victim is refetched later; GHR, RAS
        # and the rename map are all regenerated by the redispatch walk,
        # which ends exactly at the new tail.
        self.frontier.fetch_pc = self.pool.pc[victim]
        self.frontier.stalled = False
        self.frontier.segment = None
        self._squash_node(victim)
        self._prune_contexts()
        if ctx not in self.contexts or ctx.reconv is None:
            return False  # the restart itself was invalidated by the squash
        return True

    def _context_to_frontier(self, ctx: _Context) -> None:
        from ..soa import HEAD, ST_RECOVERING

        if ctx.branch is not None:
            self.pool.state[ctx.branch] &= ~ST_RECOVERING
        self.frontier.fetch_pc = ctx.fetch_pc
        self.frontier.ghr = ctx.ghr
        # The context's captured map may reference instructions squashed
        # since it was built; the live window tail is the truth.
        tail = self.rob.tail
        self.frontier.rmap = self._map_after(tail if tail is not None else HEAD)
        self.frontier.segment = ctx.segment
        self.frontier.stalled = ctx.stalled
        self.contexts.remove(ctx)

    def _finish_restart(self, ctx: _Context) -> None:
        self.stats.restart_count += 1
        self.stats.restart_cycles_total += self.cycle - ctx.start_cycle + 1
        self.stats.inserted_cd_instructions += ctx.inserted
        if ctx.reconv is None or not self.pool.is_alive(ctx.reconv):
            self._context_to_frontier(ctx)
            return
        ctx.phase = "redispatch"
        ctx.walk_cursor = ctx.reconv
        ctx.walk_ras = None
        if self.config.instant_redispatch:
            self._redispatch_walk(ctx, instant=True)


__all__ = ["SequencerStage", "_Context"]
