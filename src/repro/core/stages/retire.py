"""Retire stage: in-order commit, co-simulation, sequence repair.

Retirement co-simulates against the golden architectural trace — any
divergence is a simulator bug (:class:`~repro.errors.CosimulationError`
with a machine snapshot), not a statistic.  The predictor trains at
retirement (delayed update, Sec 4.1), Table 3's work-saved classes are
counted here, and a commit-time next-PC check repairs mis-spliced
heuristic reconvergences by flushing younger state.

The retire gate is one masked compare on the pool's state column:
``state & ST_RETIRE_GATE == ST_COMPLETED`` holds exactly when the head
is completed and neither in the ready heap, in flight, nor anchoring an
active recovery.
"""

from __future__ import annotations

from ...errors import CosimulationError
from ...ideal.models import WIDTH
from ...isa import Op
from ..soa import (
    HEAD,
    TAIL,
    ST_COMPLETED,
    ST_DEAD,
    ST_FETCHED_MP,
    ST_ISSUED_MP,
    ST_RECOVERING,
    ST_REISSUED_MP,
    ST_RETIRED,
    ST_RETIRE_GATE,
)


class RetireStage:
    """Commit-side methods mixed into the Processor facade."""

    def _retire_phase(self) -> None:
        budget = WIDTH
        retired_any = False
        golden = self.golden.entries
        n_golden = len(golden)
        rob = self.rob
        stats = self.stats
        lsq = self.lsq
        pool = self.pool
        state = pool.state
        next_col = pool.next
        pc_col = pool.pc
        while budget > 0:
            h = next_col[HEAD]
            if h == TAIL:
                break
            if state[h] & ST_RETIRE_GATE != ST_COMPLETED:
                break
            instr = pool.instr[h]
            pc = pc_col[h]
            # Commit-time sequence check (real pipelines verify next-PC at
            # retirement): if the window successor does not continue this
            # instruction's committed path — possible after a mis-spliced
            # heuristic reconvergence — flush younger state and refetch.
            expected_next = (
                pool.current_next_pc[h] if instr.is_control else pc + 1
            )
            succ = next_col[h]
            if succ != TAIL and pc_col[succ] != expected_next:
                self._sequence_repair(h, expected_next)
            entry = golden[self.retired_count] if self.retired_count < n_golden else None
            if entry is None or entry.pc != pc:
                raise CosimulationError(
                    f"retired pc {pc} but golden expects "
                    f"{entry.pc if entry else 'END'} at index {self.retired_count}",
                    snapshot=self.snapshot(),
                )
            self._check_and_commit(h, entry)
            if pool.dest_arch[h] is not None:
                self.retired_map[pool.dest_arch[h]] = pool.dest_tag[h]
            stats.issues_of_retired += pool.issue_count[h]
            state[h] |= ST_RETIRED
            retired_any = True
            if instr.is_mem:
                lsq.drop(h)
            rob.unlink(h, h)
            self.retired_count += 1
            stats.retired += 1
            budget -= 1
            if instr.op is Op.HALT:
                self.halted = True
                break
        if retired_any:
            stats.stage_retire_cycles += 1

    def _check_and_commit(self, h: int, entry) -> None:
        pool = self.pool
        instr = pool.instr[h]
        pc = pool.pc[h]
        if instr.is_store:
            if pool.addr[h] != entry.addr or pool.store_value[h] != entry.store_value:
                raise CosimulationError(
                    f"store at pc {pc}: simulated "
                    f"{pool.addr[h]}={pool.store_value[h]}, "
                    f"golden {entry.addr}={entry.store_value}",
                    snapshot=self.snapshot(),
                )
            self.committed_mem[pool.addr[h]] = pool.store_value[h]
        elif pool.dest_tag[h] is not None:
            if pool.value[h] != entry.value:
                raise CosimulationError(
                    f"pc {pc} ({instr.op.name}): simulated value "
                    f"{pool.value[h]}, golden {entry.value}",
                    snapshot=self.snapshot(),
                )
        if instr.is_control:
            if pool.current_next_pc[h] != entry.next_pc:
                raise CosimulationError(
                    f"control at pc {pc}: retiring down "
                    f"{pool.current_next_pc[h]}, golden goes to {entry.next_pc}",
                    snapshot=self.snapshot(),
                )
            # Train the predictor at retirement (delayed update, Sec 4.1).
            self.frontend.update(
                instr, pc, self.retire_ghr, entry.taken, entry.next_pc
            )
            if instr.is_branch or (instr.is_indirect and not instr.is_return):
                self.stats.branch_events += 1
                if pool.predicted_next_pc[h] != entry.next_pc:
                    self.stats.branch_mispredictions_retired += 1
            if instr.is_branch:
                self.retire_ghr = self.frontend.push_history(
                    self.retire_ghr, entry.taken
                )
        # Table 3 classification.
        s = pool.state[h]
        if s & ST_FETCHED_MP:
            self.stats.retired_fetch_saved += 1
            if s & ST_ISSUED_MP and not s & ST_REISSUED_MP:
                self.stats.retired_work_saved += 1
            elif s & ST_ISSUED_MP:
                self.stats.retired_work_discarded += 1
            else:
                self.stats.retired_only_fetched += 1

    def _sequence_repair(self, h: int, expected_next: int) -> None:
        """Flush everything younger than the retiring instruction and
        refetch from its committed successor."""
        pool = self.pool
        if self.config.strict_commit:
            succ = pool.next[h]
            raise CosimulationError(
                f"commit-time next-PC check failed at pc {pool.pc[h]}: committed "
                f"path continues at {expected_next} but the window holds pc "
                f"{pool.pc[succ] if succ != TAIL else 'END'} — "
                "mis-spliced reconvergence under exact post-dominator info",
                snapshot=self.snapshot(),
            )
        self.stats.sequence_repairs += 1
        self._squash_after(h)
        state = pool.state
        for ctx in self.contexts:
            if ctx.branch is not None and not state[ctx.branch] & ST_DEAD:
                state[ctx.branch] &= ~ST_RECOVERING
        self.contexts.clear()
        state[h] &= ~ST_RECOVERING
        self.frontier.fetch_pc = expected_next
        ghr = self.retire_ghr
        instr = pool.instr[h]
        if instr.is_branch:
            ghr = self.frontend.push_history(ghr, pool.outcome_taken[h])
        self.frontier.ghr = ghr
        self.frontier.rmap = self._map_after(h)
        self.frontier.segment = None
        self.frontier.stalled = False
        if pool.ras_snapshot[h] is not None:
            self.frontend.ras.restore(pool.ras_snapshot[h])
            if instr.is_call:
                self.frontend.ras.push(pool.pc[h] + 1)
            elif instr.is_return:
                self.frontend.ras.pop()


__all__ = ["RetireStage"]
