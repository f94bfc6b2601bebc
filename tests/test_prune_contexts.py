"""Restart-stack pruning (``RecoveryStage._prune_contexts``) on a
hand-built stack.

After a squash, a restart context dies when its branch is dead, or when
it is still in its restart phase and its insert point is dead (unless
the insert point is the branch itself).  A surviving context whose
reconvergent point is dead degenerates to ``reconv = None``.  A dropped
context's branch stops recovering only if that branch is still alive.
"""

from __future__ import annotations

from repro.core.rob import ReorderBuffer
from repro.core.soa import ST_RECOVERING, ST_SQUASHED
from repro.core.stages.recovery import RecoveryStage
from repro.core.stages.sequencer import _Context

from fetch_bench import bench, dispatch


class _Stack(RecoveryStage):
    """Just the state ``_prune_contexts`` reads: the pool and the stack."""

    def __init__(self, rob: ReorderBuffer, contexts: list):
        self.pool = rob.pool
        self.contexts = contexts


def _context(phase, branch, insert_point=None, reconv=None):
    ctx = _Context(fetch_pc=0, ghr=0, rmap=[])
    ctx.phase = phase
    ctx.branch = branch
    ctx.insert_point = insert_point
    ctx.reconv = reconv
    return ctx


def test_prune_keeps_order_and_clears_recovering_on_live_dropped_branches():
    proc = bench(32)
    rob = proc.rob
    pool = rob.pool
    slots = [dispatch(proc, uid) for uid in range(12)]
    (b_dead, b_ip, ip_dead, b_rc, ip_rc, rc_dead, b_self, b_walk, ip_walk,
     b_ok, ip_ok, rc_ok) = slots
    for h in (b_dead, b_ip, b_rc, b_self, b_walk, b_ok):
        pool.state[h] |= ST_RECOVERING
    for h in (b_dead, ip_dead, rc_dead, ip_walk):
        pool.state[h] |= ST_SQUASHED
        rob.unlink(h, h)

    dead_branch = _context("restart", b_dead, b_dead, rc_ok)
    dead_insert = _context("restart", b_ip, ip_dead, rc_ok)
    dead_reconv = _context("restart", b_rc, ip_rc, rc_dead)
    insert_is_branch = _context("restart", b_self, b_self, rc_ok)
    walking = _context("redispatch", b_walk, ip_walk, rc_ok)
    no_branch = _context("restart", None, ip_dead, rc_ok)
    healthy = _context("restart", b_ok, ip_ok, rc_ok)
    stack = _Stack(rob, [
        dead_branch, dead_insert, dead_reconv, insert_is_branch, walking,
        no_branch, healthy,
    ])

    stack._prune_contexts()

    assert stack.contexts == [
        dead_reconv, insert_is_branch, walking, healthy,
    ]
    assert dead_reconv.reconv is None
    assert [ctx.reconv for ctx in (insert_is_branch, walking, healthy)] == [
        rc_ok, rc_ok, rc_ok,
    ]
    # cleared only on the dropped context whose branch is alive
    assert not pool.state[b_ip] & ST_RECOVERING
    for h in (b_dead, b_rc, b_self, b_walk, b_ok):
        assert pool.state[h] & ST_RECOVERING, pool.describe(h)


def test_prune_of_a_clean_stack_changes_nothing():
    proc = bench(8)
    rob = proc.rob
    pool = rob.pool
    branch, insert, reconv = (dispatch(proc, uid) for uid in range(3))
    pool.state[branch] |= ST_RECOVERING
    ctx = _context("restart", branch, insert, reconv)
    stack = _Stack(rob, [ctx])
    stack._prune_contexts()
    assert stack.contexts == [ctx]
    assert ctx.reconv == reconv
    assert pool.state[branch] & ST_RECOVERING
