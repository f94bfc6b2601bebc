"""Recovery stage: misprediction recovery, squash, redispatch, repredict.

Implements Sections 3.1 and 4 plus Appendix A.1/A.3: a completing branch
whose outcome contradicts the fetched path looks up its reconvergent
point, selectively squashes the incorrect control-dependent region (or
fully squashes when no reconvergent point is in the window), and drives
the redispatch walk that remaps source registers, replays the RAS and
re-predicts control-independent branches against the repaired history.
Rename maps are rebuilt forward from the commit-side map.

Squash ordering under the columnar pool: ``_squash_after`` is the one
squash path, one backward loop over a range of the window.  It recycles
the victims' slots as soon as it has marked them (``rob.unlink`` pushes
them on the free list), so any handle that could name a victim is
repaired right then — the redispatch walk cursors of suspended contexts
are advanced eagerly here, which is what keeps every context handle
live (see the sequencer module docstring).  Reads of a just-freed
slot's columns remain valid until the next allocation, and allocation
only happens in the sequencer's fetch loop, never inside a squash
cascade.
"""

from __future__ import annotations

from ...ideal.models import WIDTH
from ..config import Preemption, ReconvPolicy, RepredictMode
from ..soa import (
    HEAD,
    TAIL,
    ST_COMPLETED,
    ST_DEAD,
    ST_FETCHED_MP,
    ST_ISSUED_MP,
    ST_RECOVERING,
    ST_REISSUED_MP,
    ST_SQUASHED,
)
from .sequencer import _Context


class RecoveryStage:
    """Recovery/squash/redispatch methods mixed into the Processor facade."""

    # ==================================================================
    # recovery (Sections 3.1, 4; Appendix A.1)

    def _find_reconvergent(self, branch: int) -> int | None:
        pool = self.pool
        instr = pool.instr[branch]
        pc = pool.pc[branch]
        policy = self.config.reconv_policy
        if policy is ReconvPolicy.NONE:
            return None
        if policy is ReconvPolicy.POSTDOM:
            if not instr.is_branch:
                return None
            target = self.reconv_table.reconvergent_pc(pc)
            if target is None:
                return None
            candidates = {target}
        else:
            backward = instr.is_branch and instr.target <= pc
            if policy.uses_ltb and backward:
                candidates = {pc + 1}  # not-taken target of the loop branch
            else:
                candidates = set()
                if policy.uses_return:
                    candidates |= self._return_targets
                if policy.uses_loop:
                    candidates |= self._loop_targets
                if not candidates:
                    return None
        # An outstanding restart's unfilled gap makes everything beyond it
        # a *later* dynamic instance of any matching PC: searching across
        # it would reconverge onto the wrong instance and splice whole
        # iterations out of the window.  Stop at the first open gap.
        gap_markers = {
            ctx.insert_point for ctx in self.contexts if ctx.phase == "restart"
        }
        next_col = pool.next
        pc_col = pool.pc
        node = next_col[branch]
        while node != TAIL:
            if pc_col[node] in candidates:
                return node
            if node in gap_markers:
                return None
            node = next_col[node]
        return None

    def _classify_misprediction(self, branch: int) -> bool:
        """Record true/false misprediction stats; returns False-ness."""
        pool = self.pool
        entry = self._golden_entry_for(branch)
        false_mp = entry is not None and entry.next_pc == pool.current_next_pc[branch]
        if false_mp:
            self.stats.false_mispredictions += 1
        else:
            self.stats.true_mispredictions += 1
        for collector in self.tfr_collectors:
            collector.record(pool.pc[branch], pool.history_used[branch], false_mp)
        return false_mp

    def _recover(self, branch: int) -> None:
        """The branch's computed outcome contradicts the fetched path."""
        self.stats.recoveries += 1
        self._any_recovered = True
        self._classify_misprediction(branch)
        reconv = self._find_reconvergent(branch)
        pool = self.pool

        if reconv is None:
            self.stats.full_squashes += 1
            self._full_squash(branch)
            return

        # Preemption of an active restart (Appendix A.1).
        if self.contexts and self.config.preemption is Preemption.SIMPLE:
            current = self._active_context()
            if current.branch != branch and current.phase == "restart":
                self.stats.preemptions += 1
                orders = pool.order
                subsumed = (
                    orders[branch] < orders[current.branch]
                    and orders[reconv] >= orders[current.branch]
                )
                if not subsumed:
                    # CASES 1 and 3: preempt the active restart by squashing
                    # from its reconvergent point on; its partially inserted
                    # path becomes the window tail and plain fetch resumes
                    # it (the simple sequencer remembers only one restart).
                    self._preempt_simple(current)
                    if pool.state[branch] & ST_DEAD:
                        return  # the new misprediction was squashed with the tail
                # CASE 2 (subsumed): the new recovery's own squash region
                # covers the current restart; nothing special to do.
        elif self.contexts:
            self.stats.preemptions += 1
        self.stats.reconverged_recoveries += 1

        # Selectively squash the incorrect control-dependent region.
        self.stats.removed_cd_instructions += self._squash_after(branch, reconv)

        # Table 2/3 bookkeeping over the preserved CI region (direct link
        # traversal: this runs once per reconverged recovery over up to a
        # window's worth of slots).
        preserved = 0
        state = pool.state
        issue_count = pool.issue_count
        next_col = pool.next
        ci = reconv
        while ci != TAIL:
            preserved += 1
            s = state[ci] | ST_FETCHED_MP
            if issue_count[ci] > 0:
                s |= ST_ISSUED_MP
            else:
                s &= ~ST_ISSUED_MP
            state[ci] = s & ~ST_REISSUED_MP
            ci = next_col[ci]
        self.stats.ci_instructions_preserved += preserved

        # Build the restart context.
        ctx = _Context(
            fetch_pc=pool.outcome_next_pc[branch],
            ghr=self._history_after(branch),
            rmap=self._map_after(branch),
        )
        ctx.branch = branch
        ctx.reconv = reconv
        ctx.insert_point = branch
        ctx.phase = "restart"
        ctx.start_cycle = self.cycle
        pool.current_taken[branch] = pool.outcome_taken[branch]
        pool.current_next_pc[branch] = pool.outcome_next_pc[branch]
        pool.state[branch] |= ST_RECOVERING
        if pool.instr[branch].is_branch:
            self.frontend.ras.restore(pool.ras_snapshot[branch])
        # Prune contexts invalidated by the squash (including any stale
        # context for this same branch), then activate the new one.
        self.contexts = [c for c in self.contexts if c.branch != branch]
        self._prune_contexts()
        self.contexts.append(ctx)

    def _history_up_to(self, ctx: _Context, stop: int, inclusive: bool) -> int:
        """Reconstruct the global history at ``stop`` from the recovered
        branch's (possibly walk-corrected) fetch history plus the current
        directions of every live branch in between."""
        ghr = self._history_after(ctx.branch)
        if stop == ctx.branch:
            return ghr
        pool = self.pool
        next_col = pool.next
        state = pool.state
        instr_col = pool.instr
        taken_col = pool.current_taken
        push = self.frontend.push_history
        node = next_col[ctx.branch]
        while node != TAIL:
            if not inclusive and node == stop:
                break
            if not state[node] & ST_DEAD and instr_col[node].is_branch:
                ghr = push(ghr, taken_col[node])
            if inclusive and node == stop:
                break
            node = next_col[node]
        return ghr

    def _preempt_simple(self, current: _Context) -> None:
        """Simple preemption: abandon the active restart, squashing from
        its reconvergent point on (paper A.1.1 CASE 3)."""
        pool = self.pool
        if current.reconv is not None and pool.is_alive(current.reconv):
            self._squash_after(pool.prev[current.reconv])
        self.frontier.fetch_pc = current.fetch_pc
        self.frontier.ghr = current.ghr
        tail = self.rob.tail
        self.frontier.rmap = self._map_after(tail if tail is not None else HEAD)
        self.frontier.segment = None
        self.frontier.stalled = current.stalled
        state = pool.state
        for ctx in self.contexts:
            if ctx.branch is not None and not state[ctx.branch] & ST_DEAD:
                state[ctx.branch] &= ~ST_RECOVERING
        self.contexts.clear()

    def _history_after(self, branch: int) -> int:
        pool = self.pool
        if pool.instr[branch].is_branch:
            return self.frontend.push_history(
                pool.history_used[branch], pool.outcome_taken[branch]
            )
        return pool.history_used[branch]

    def _map_after(self, anchor: int) -> list:
        """Rename map just after ``anchor`` executes, rebuilt forward from
        the commit-side map over the live window contents.  Immune to any
        amount of prior insertion, removal and redispatch.  Callers own
        (and mutate) the returned list."""
        pool = self.pool
        rmap = list(self.retired_map)
        next_col = pool.next
        dest_arch = pool.dest_arch
        dest_tag = pool.dest_tag
        node = next_col[HEAD]
        while node != TAIL:
            arch = dest_arch[node]
            if arch is not None:
                rmap[arch] = dest_tag[node]
            if node == anchor:
                break
            node = next_col[node]
        return rmap

    def _full_squash(self, branch: int) -> None:
        pool = self.pool
        rmap = self._map_after(branch)
        self._squash_after(branch)
        pool.current_taken[branch] = pool.outcome_taken[branch]
        pool.current_next_pc[branch] = pool.outcome_next_pc[branch]
        self.frontier.rmap = rmap
        self.frontier.fetch_pc = pool.outcome_next_pc[branch]
        self.frontier.ghr = self._history_after(branch)
        self.frontier.segment = None
        self.frontier.stalled = False
        if pool.ras_snapshot[branch] is not None:
            self.frontend.ras.restore(pool.ras_snapshot[branch])
        self._prune_contexts()

    def _squash_after(self, last_kept: int, stop: int = TAIL) -> int:
        """Squash every instruction between ``last_kept`` and ``stop``
        (both exclusive; ``stop`` defaults to the window tail), youngest
        first, and return how many were squashed — the one squash path.

        Each victim is marked dead and leaves the LSQ (a completed
        store's squash replays the younger loads that read it) and the
        incomplete-branch set; then the whole range is unlinked in one
        call (``ReorderBuffer.unlink``), which recycles its slots.
        Nothing between the marking and the unlink reads the links, the
        count or the free list, and reads of a freed slot's columns stay
        valid until fetch claims it again, which never happens inside a
        squash cascade.  A suspended redispatch walk parked in the range
        resumes at ``stop``: the cursor must stay a live handle (or
        TAIL) across the recycling.
        """
        pool = self.pool
        prev_col = pool.prev
        last = prev_col[stop]
        if last == last_kept:
            return 0
        self._needs_remap = True  # captured maps may now reference the dead
        state = pool.state
        instr_col = pool.instr
        lsq = self.lsq
        incomplete = self._incomplete_branches
        squashed = 0
        h = last
        while True:
            state[h] |= ST_SQUASHED
            squashed += 1
            instr = instr_col[h]
            if instr.is_mem:
                # Drop from the LSQ first so the squashed store itself is
                # out of the scan when affected loads are collected.
                lsq.drop(h)
                if instr.is_store and state[h] & ST_COMPLETED:
                    for load in lsq.loads_affected_by(h, {pool.addr[h]}):
                        self.stats.reissues_memory += 1
                        self._wake(load, self.cycle + 1)
            elif (instr.is_branch or instr.is_indirect) and h in incomplete:
                del incomplete[h]
                if self._oldest_gate == h:
                    self._oldest_gate_valid = False
            prev = prev_col[h]
            if prev == last_kept:
                break
            h = prev
        self.rob.unlink(h, last)
        for ctx in self.contexts:
            if ctx.phase == "redispatch" and state[ctx.walk_cursor] & ST_DEAD:
                ctx.walk_cursor = stop
        return squashed

    def _prune_contexts(self) -> None:
        """Drop contexts invalidated by a squash.

        A context dies when its branch was squashed, or when a nested
        recovery squashed its insertion chain — in the latter case the
        nested recovery's own context (or the redirected frontier)
        subsumes the remaining gap, because the squashed branch lay on
        this context's correct control-dependent path; its still-live
        branch stops recovering.

        One pass over the stack: a squash of every instruction in a
        restart's way (``_squash_youngest_ci``) calls this once per
        squashed instruction, and heuristic machines nest restarts a few
        hundred deep."""
        state = self.pool.state
        kept = []
        for ctx in self.contexts:
            branch = ctx.branch
            if branch is not None and state[branch] & ST_DEAD:
                continue
            insert_point = ctx.insert_point
            if (
                ctx.phase == "restart"
                and insert_point is not None
                and insert_point != branch
                and state[insert_point] & ST_DEAD
            ):
                if branch is not None:
                    state[branch] &= ~ST_RECOVERING
                continue
            if ctx.reconv is not None and state[ctx.reconv] & ST_DEAD:
                # Reconvergent point squashed: the context degenerates to
                # plain tail fetch once it reaches the top of the stack.
                ctx.reconv = None
            kept.append(ctx)
        self.contexts = kept

    # ==================================================================
    # redispatch walk (Appendix A.3)

    def _redispatch_walk(self, ctx: _Context, instant: bool = False) -> None:
        """Walk the CI region at dispatch bandwidth: remap each node's
        sources through the walk's map (a changed tag is a rename repair
        that reissues the node), carry its destination forward, replay
        the RAS, and re-predict branches (Appendix A.3).

        The cursor is always live (or TAIL): squash repairs it eagerly,
        so the walk never meets a dead slot."""
        budget = self.rob.window_size if instant else WIDTH
        rmap = ctx.rmap
        pool = self.pool
        next_col = pool.next
        instr_col = pool.instr
        src1_col = pool.src1_tag
        src2_col = pool.src2_tag
        refs = pool.ref
        issue_count = pool.issue_count
        dest_arch = pool.dest_arch
        dest_tag = pool.dest_tag
        stats = self.stats
        ras = self.frontend.ras
        wake = self._wake
        wake_at = self.cycle + 1
        node = ctx.walk_cursor
        while node != TAIL and budget > 0:
            instr = instr_col[node]
            repaired = False
            if instr.reads_rs1:
                tag = rmap[instr.rs1]
                if tag is not src1_col[node]:
                    src1_col[node] = tag
                    tag.consumers.append(refs[node])
                    repaired = True
            if instr.reads_rs2:
                tag = rmap[instr.rs2]
                if tag is not src2_col[node]:
                    src2_col[node] = tag
                    tag.consumers.append(refs[node])
                    repaired = True
            if repaired:
                stats.ci_rename_repairs += 1
                if issue_count[node] > 0:
                    stats.reissues_register += 1
                wake(node, wake_at)
            arch = dest_arch[node]
            if arch is not None:
                rmap[arch] = dest_tag[node]
            # RAS replay so the frontier stack is exact after the walk.
            if instr.is_call:
                ras.push(pool.pc[node] + 1)
            elif instr.is_return:
                ras.pop()
            budget -= 1
            if instr.is_branch and self._repredict(ctx, node):
                return  # overturned: the context finished in _overturn
            node = next_col[node]
        if node == TAIL:
            self._finish_redispatch(ctx)
        else:
            ctx.walk_cursor = node

    def _repredict(self, ctx: _Context, h: int) -> bool:
        """Re-predict one CI branch during redispatch (Appendix A.3.2).

        Returns True when the prediction was overturned (everything after
        the branch is squashed and fetch redirects)."""
        pool = self.pool
        mode = self.config.repredict_mode
        direction = pool.current_taken[h]
        if mode is RepredictMode.NONE:
            pass
        elif pool.state[h] & ST_COMPLETED:
            direction = pool.outcome_taken[h]  # force the predictor
        elif mode is RepredictMode.ORACLE:
            entry = self._golden_entry_for(h)
            if entry is not None:
                direction = entry.taken
        else:
            direction = self.frontend.gshare.predict(pool.pc[h], ctx.ghr)
        pool.history_used[h] = ctx.ghr
        if direction != pool.current_taken[h]:
            self.stats.repredict_events += 1
            entry = self._golden_entry_for(h)
            if entry is not None and entry.taken == pool.current_taken[h]:
                self.stats.repredict_overturned_correct += 1
            self._overturn(ctx, h, direction)
            return True
        ctx.ghr = self.frontend.push_history(ctx.ghr, direction)
        return False

    def _overturn(self, ctx: _Context, h: int, direction: bool) -> None:
        """A re-prediction changed a CI branch's direction: squash after it
        and resume plain fetch down the new path."""
        self._squash_after(h)
        pool = self.pool
        pool.current_taken[h] = direction
        pool.current_next_pc[h] = (
            pool.instr[h].target if direction else pool.pc[h] + 1
        )
        self.frontier.fetch_pc = pool.current_next_pc[h]
        self.frontier.ghr = self.frontend.push_history(ctx.ghr, direction)
        self.frontier.rmap = ctx.rmap
        self.frontier.segment = None
        self.frontier.stalled = False
        if ctx.branch is not None:
            pool.state[ctx.branch] &= ~ST_RECOVERING
        if ctx in self.contexts:
            self.contexts.remove(ctx)
        self._prune_contexts()
        if self.contexts:
            # Some suspended context survived; it will republish the
            # frontier state when it completes.
            self._last_active = None

    def _finish_redispatch(self, ctx: _Context) -> None:
        if ctx.branch is not None:
            self.pool.state[ctx.branch] &= ~ST_RECOVERING
        self.frontier.rmap = ctx.rmap
        self.frontier.ghr = ctx.ghr
        self.frontier.segment = None
        if ctx in self.contexts:
            self.contexts.remove(ctx)
        # Suspended contexts rebuild their maps when reactivated.


__all__ = ["RecoveryStage"]
