"""InstrPool slot lifecycle: free-list recycling, exhaustion, refs.

The columnar pool recycles integer handles through a LIFO free list:
the sequencer's fetch loop takes a slot off it at dispatch and
``ReorderBuffer.unlink`` puts it back when retirement or a squash
unlinks the slot.  These tests drive both through the core (see
``tests/fetch_bench.py``) and pin the lifecycle contract it relies on:

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
from repro.core.soa import (
    HEAD,
    REF_MASK,
    REF_SHIFT,
    ST_DEAD,
    TAIL,
)
from repro.errors import PoolExhausted
from repro.harness.experiments import load_bundle

from fetch_bench import bench, dispatch, squash


# ----------------------------------------------------------------------
# free-list recycling


def test_lifo_recycling_reuses_most_recent_slot():
    proc = bench(16)
    a = dispatch(proc, 0)
    b = dispatch(proc, 1)
    squash(proc, a)
    squash(proc, b)
    # LIFO: the most recently freed slot comes back first (cache-warm)
    assert dispatch(proc, 2) == b
    assert dispatch(proc, 3) == a


def test_live_tracks_alloc_free_waves():
    proc = bench(32)
    pool = proc.pool
    assert pool.live == 0
    handles = [dispatch(proc, u) for u in range(32)]
    assert pool.live == 32
    for h in handles[10:30]:  # a deep squash wave
        squash(proc, h)
    assert pool.live == 12
    redispatched = [dispatch(proc, 100 + i, pc=0, cycle=1) for i in range(20)]
    assert pool.live == 32
    assert set(redispatched) == set(handles[10:30])
    assert pool.allocated_total == 52


def test_boundary_slots_never_enter_the_free_list():
    proc = bench(6)
    seen = {dispatch(proc, u) for u in range(6)}
    assert HEAD not in seen and TAIL not in seen
    assert seen == set(range(2, 8))


def test_rob_remove_returns_slot_to_the_pool():
    proc = bench(16)
    pool = proc.pool
    handles = [dispatch(proc, uid) for uid in range(16)]
    assert pool.live == proc.rob.count == 16
    for h in handles[4:12]:  # squash the middle of the window
        squash(proc, h)
    assert pool.live == proc.rob.count == 8
    # dispatch can refill the window entirely from recycled slots
    for uid in range(100, 108):
        dispatch(proc, uid, cycle=1)
    assert pool.live == proc.rob.count == 16


# ----------------------------------------------------------------------
# exhaustion


def test_exhaustion_raises_structured_error():
    proc = bench(4)
    handles = [dispatch(proc, uid) for uid in range(3)]
    # A leaked slot (retired or squashed but never freed) is the only
    # way the free list runs dry below a full window: fetch's capacity
    # check passes, so the claim itself must fail loudly.
    proc.pool._free.pop()
    with pytest.raises(PoolExhausted) as err:
        dispatch(proc, 3)
    assert not isinstance(err.value, IndexError)
    assert err.value.capacity == 6
    assert err.value.live == 4
    # unlinking a slot makes the claim work again
    squash(proc, handles[0])
    assert dispatch(proc, 4) == handles[0] == 2


def test_full_window_never_exhausts_the_pool():
    """The pool holds window_size + 2 slots, so a full ROB still has a
    free slot count of zero — but dispatch is gated by ``rob.full``
    before the claim, so exhaustion is unreachable in a healthy machine."""
    proc = bench(8)
    for uid in range(8):
        dispatch(proc, uid)
    assert proc.rob.full
    assert proc.pool.live == 8
    assert len(proc.pool._free) == 0


# ----------------------------------------------------------------------
# uid monotonicity + packed refs across recycling


def test_uid_and_ref_survive_free_until_realloc():
    proc = bench(16)
    pool = proc.pool
    h = dispatch(proc, 7, pc=3)
    ref = pool.ref[h]
    squash(proc, h)
    # dead bits and identity survive the unlink
    assert pool.ref[h] >> REF_SHIFT == 7
    assert pool.state[h] & ST_DEAD
    assert pool.valid_ref(ref)  # still addresses the (dead) tenant
    assert not pool.is_alive(h)


def test_recycle_invalidates_stale_refs_and_bumps_uid():
    proc = bench(16)
    pool = proc.pool
    h = dispatch(proc, 7, pc=3)
    stale = pool.ref[h]
    squash(proc, h)
    h2 = dispatch(proc, 8, pc=4, cycle=1)
    assert h2 == h  # recycled slot
    assert pool.ref[h] >> REF_SHIFT == 8
    assert not pool.valid_ref(stale)  # old ref no longer matches
    assert pool.valid_ref(pool.ref[h])
    assert (stale & REF_MASK) == h  # same slot, different tenant
    assert pool.is_alive(h)  # the claim cleared the dead bits


def test_uids_monotonic_across_heavy_recycling():
    """A machine-shaped churn: uids assigned by the sequencer only grow,
    even as handles cycle through the free list repeatedly."""
    proc = bench(8)
    pool = proc.pool
    uid = 0
    seen_per_handle: dict[int, list[int]] = {}
    live: list[int] = []
    for wave in range(50):
        while pool.live < 8:
            h = dispatch(proc, uid, cycle=wave)
            seen_per_handle.setdefault(h, []).append(uid)
            live.append(h)
            uid += 1
        for h in live[-4:]:
            squash(proc, h)
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
