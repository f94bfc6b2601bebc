"""InstrPool slot lifecycle: free-list recycling, exhaustion, refs.

The columnar pool recycles integer handles through a LIFO free list:
``ReorderBuffer.claim`` takes a slot off it at dispatch and
``ReorderBuffer.remove`` puts it back when it unlinks the slot at
retire/squash.  These tests pin the lifecycle
contract the core relies on:

* the free list and the linked window partition the real slots at every
  cycle boundary, even under deep squash/redispatch waves (a leak in
  either direction eventually deadlocks dispatch or corrupts state);
* exhaustion raises the structured :class:`repro.errors.PoolExhausted`
  with capacity/live attributes, never a bare ``IndexError``;
* uids stay monotonic across recycled slots, and a packed ref held over
  a recycle self-invalidates (``valid_ref``) instead of aliasing the
  new tenant;
* a freed slot keeps its dead state bits until reallocation, so stale
  handles read as dead.
"""

from __future__ import annotations

import pytest

from repro.core import CoreConfig, Processor, ReconvPolicy
from repro.core.rob import ReorderBuffer
from repro.core.soa import (
    HEAD,
    REF_MASK,
    ST_DEAD,
    ST_SQUASHED,
    TAIL,
)
from repro.errors import PoolExhausted
from repro.harness.experiments import load_bundle
from repro.isa import Instruction, Op

_NOP = Instruction(Op.NOP)


def make_rob(window=16):
    return ReorderBuffer(window)


def claim(rob, uid, pc=None, cycle=0):
    """Dispatch one instruction at the window tail (pc = uid by default)."""
    return rob.claim(uid, uid if pc is None else pc, _NOP, cycle, None, None)


def squash(rob, h):
    """Kill and unlink a slot the way the squash path does."""
    rob.pool.state[h] |= ST_SQUASHED
    rob.remove(h)


# ----------------------------------------------------------------------
# free-list recycling


def test_lifo_recycling_reuses_most_recent_slot():
    rob = make_rob()
    a = claim(rob, 0)
    b = claim(rob, 1)
    squash(rob, a)
    squash(rob, b)
    # LIFO: the most recently freed slot comes back first (cache-warm)
    assert claim(rob, 2) == b
    assert claim(rob, 3) == a


def test_live_tracks_alloc_free_waves():
    rob = make_rob(32)
    pool = rob.pool
    assert pool.live == 0
    handles = [claim(rob, u) for u in range(32)]
    assert pool.live == 32
    for h in handles[10:30]:  # a deep squash wave
        squash(rob, h)
    assert pool.live == 12
    redispatched = [claim(rob, 100 + i, pc=0, cycle=1) for i in range(20)]
    assert pool.live == 32
    assert set(redispatched) == set(handles[10:30])
    assert pool.allocated_total == 52


def test_boundary_slots_never_enter_the_free_list():
    rob = make_rob(6)
    seen = {claim(rob, u) for u in range(6)}
    assert HEAD not in seen and TAIL not in seen
    assert seen == set(range(2, 8))


def test_rob_remove_returns_slot_to_the_pool():
    rob = ReorderBuffer(16)
    pool = rob.pool
    handles = [claim(rob, uid) for uid in range(16)]
    assert pool.live == rob.count == 16
    for h in handles[4:12]:  # squash the middle of the window
        rob.remove(h)
    assert pool.live == rob.count == 8
    # dispatch can refill the window entirely from recycled slots
    for uid in range(100, 108):
        claim(rob, uid, cycle=1)
    assert pool.live == rob.count == 16


# ----------------------------------------------------------------------
# exhaustion


def test_exhaustion_raises_structured_error():
    rob = make_rob(4)
    handles = [claim(rob, uid) for uid in range(4)]
    # the ROB's capacity check is dispatch's job; the claim itself must
    # still fail loudly when the free list is empty
    with pytest.raises(PoolExhausted) as err:
        claim(rob, 4)
    assert not isinstance(err.value, IndexError)
    assert err.value.capacity == 6
    assert err.value.live == 4
    # unlinking a slot makes the claim work again
    rob.remove(handles[0])
    assert claim(rob, 5) == handles[0] == 2


def test_full_window_never_exhausts_the_pool():
    """The pool holds window_size + 2 slots, so a full ROB still has a
    free slot count of zero — but dispatch is gated by ``rob.full``
    before the claim, so exhaustion is unreachable in a healthy machine."""
    rob = ReorderBuffer(8)
    for uid in range(8):
        claim(rob, uid)
    assert rob.full
    assert rob.pool.live == 8
    assert len(rob.pool._free) == 0


# ----------------------------------------------------------------------
# uid monotonicity + packed refs across recycling


def test_uid_and_ref_survive_free_until_realloc():
    rob = make_rob()
    pool = rob.pool
    h = claim(rob, 7, pc=3)
    ref = pool.ref[h]
    squash(rob, h)
    # dead bits and identity survive the unlink
    assert pool.uid[h] == 7
    assert pool.state[h] & ST_DEAD
    assert pool.valid_ref(ref)  # still addresses the (dead) tenant
    assert not pool.is_alive(h)


def test_recycle_invalidates_stale_refs_and_bumps_uid():
    rob = make_rob()
    pool = rob.pool
    h = claim(rob, 7, pc=3)
    stale = pool.ref[h]
    squash(rob, h)
    h2 = claim(rob, 8, pc=4, cycle=1)
    assert h2 == h  # recycled slot
    assert pool.uid[h] == 8
    assert not pool.valid_ref(stale)  # old ref no longer matches
    assert pool.valid_ref(pool.ref[h])
    assert (stale & REF_MASK) == h  # same slot, different tenant
    assert pool.is_alive(h)  # the claim cleared the dead bits


def test_uids_monotonic_across_heavy_recycling():
    """A machine-shaped churn: uids assigned by the sequencer only grow,
    even as handles cycle through the free list repeatedly."""
    rob = make_rob(8)
    pool = rob.pool
    uid = 0
    seen_per_handle: dict[int, list[int]] = {}
    live: list[int] = []
    for wave in range(50):
        while pool.live < 8:
            h = claim(rob, uid, cycle=wave)
            seen_per_handle.setdefault(h, []).append(uid)
            live.append(h)
            uid += 1
        for h in live[-4:]:
            squash(rob, h)
        del live[-4:]
    for h, uids in seen_per_handle.items():
        assert uids == sorted(uids), f"handle {h} saw non-monotonic uids"
    reused = sum(1 for uids in seen_per_handle.values() if len(uids) > 1)
    assert reused >= 4, "recycling never reused handles"


# ----------------------------------------------------------------------
# machine-level: the window and the free list partition the pool


def test_window_and_free_list_partition_under_recovery():
    """On a real CI cell (selective squash + redispatch waves), every
    cycle ends with pool.live == rob.count: each linked slot is
    allocated and each unlinked slot was freed — no leaks, no aliasing."""
    bundle = load_bundle("go", 0.05)
    config = CoreConfig(window_size=64, reconv_policy=ReconvPolicy.POSTDOM)
    checked = 0

    def check(proc):
        nonlocal checked
        checked += 1
        assert proc.pool.live == proc.rob.count, (
            f"cycle {proc.cycle}: {proc.pool.live} allocated slots vs "
            f"{proc.rob.count} linked — free list out of sync"
        )

    processor = Processor(bundle.program, config, bundle.golden, bundle.reconv)
    processor.add_cycle_hook(check)
    stats = processor.run()
    assert checked > 500
    assert stats.retired == len(bundle.golden)
    # after HALT retires, the machine drained: the pool must too
    assert processor.pool.live == processor.rob.count
