"""InstrPool backend parity at the capacity-aware selection boundary.

``resolve_backend`` auto-picks numpy only at or above
``NUMPY_MIN_CAPACITY`` (~4k), where it pays off; below, the stdlib
``array`` columns win.  The two backends must be bit-for-bit
interchangeable *especially* around that switch point — a capacity-
dependent behavioral difference would make window size silently change
simulation results.  These tests drive identical claim / link / unlink
churn through reorder buffers on both pool backends at capacities
straddling the boundary and require identical column state, plus the
selection rules themselves under both ``REPRO_SOA`` overrides.
"""

from __future__ import annotations

import pytest

from repro.core.rob import ReorderBuffer
from repro.core.soa import (
    BACKENDS,
    NUMPY_MIN_CAPACITY,
    InstrPool,
    ST_COMPLETED,
    ST_SQUASHED,
    resolve_backend,
)
from repro.isa import Instruction, Op

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")


@pytest.fixture(autouse=True)
def clear_soa_env(monkeypatch):
    monkeypatch.delenv("REPRO_SOA", raising=False)


# ----------------------------------------------------------------------
# selection rules


def test_auto_selection_boundary():
    for capacity in (1, 256, NUMPY_MIN_CAPACITY - 1):
        assert resolve_backend(None, capacity) == "fallback", capacity
    expected = "numpy" if HAVE_NUMPY else "fallback"
    for capacity in (NUMPY_MIN_CAPACITY, NUMPY_MIN_CAPACITY + 1, 1 << 20):
        assert resolve_backend(None, capacity) == expected, capacity
    # no capacity hint: prefer numpy when importable
    assert resolve_backend(None, None) == expected


@needs_numpy
def test_constructor_dispatches_on_capacity():
    # the ROB's pool holds the window plus the two boundary slots
    assert ReorderBuffer(NUMPY_MIN_CAPACITY - 3).pool.backend == "fallback"
    assert ReorderBuffer(NUMPY_MIN_CAPACITY - 2).pool.backend == "numpy"


def test_env_override_beats_capacity(monkeypatch):
    monkeypatch.setenv("REPRO_SOA", "fallback")
    assert InstrPool(1 << 15).backend == "fallback"
    monkeypatch.setenv("REPRO_SOA", "array")  # documented alias
    assert InstrPool(1 << 15).backend == "fallback"
    if HAVE_NUMPY:
        monkeypatch.setenv("REPRO_SOA", "numpy")
        assert InstrPool(8).backend == "numpy"


def test_unknown_backend_rejected(monkeypatch):
    with pytest.raises(ValueError, match="unknown SoA backend"):
        resolve_backend("valarray")
    monkeypatch.setenv("REPRO_SOA", "valarray")
    with pytest.raises(ValueError, match="unknown SoA backend"):
        InstrPool(16)


def test_backends_registry_is_exactly_the_two_columns():
    assert BACKENDS == ("numpy", "fallback")


# ----------------------------------------------------------------------
# InstrPool parity across the boundary

_NOP = Instruction(Op.NOP)


def _drive_pool(rob: ReorderBuffer, count: int) -> list:
    """Deterministic claim/mutate/unlink churn through the ROB's one
    dispatch and one unlink path; returns state snapshots."""
    pool = rob.pool
    snapshots = []
    handles = []
    uid = 0
    for _ in range(count):
        # every 7th dispatch is a restart-style insert after an older slot
        after = handles[len(handles) // 2] if uid % 7 == 6 else None
        h = rob.claim(uid, uid * 4, _NOP, uid % 17, after, None)
        pool.state[h] = ST_COMPLETED if uid % 3 else 0
        handles.append(h)
        uid += 1
    # squash-and-recycle waves over the middle of the allocation
    for wave in range(3):
        victims = handles[len(handles) // 4 : len(handles) // 2 : 2 + wave]
        for h in victims:
            pool.state[h] |= ST_SQUASHED
            rob.remove(h)
            handles.remove(h)
        for _ in victims:
            handles.append(rob.claim(uid, uid * 4, _NOP, uid % 17, None, None))
            uid += 1
    snapshots.append([int(v) for v in pool.uid])
    snapshots.append([int(v) for v in pool.order])
    snapshots.append([int(v) for v in pool.state])
    snapshots.append([int(v) for v in pool.prev])
    snapshots.append([int(v) for v in pool.next])
    snapshots.append(list(pool.ref))
    snapshots.append((pool.live, pool.allocated_total, sorted(pool._free)))
    return snapshots


def test_instr_pool_auto_selection_matches_order_index():
    assert InstrPool(NUMPY_MIN_CAPACITY - 1).backend == "fallback"
    expected = "numpy" if HAVE_NUMPY else "fallback"
    assert InstrPool(NUMPY_MIN_CAPACITY).backend == expected


@needs_numpy
@pytest.mark.parametrize(
    "capacity",
    [NUMPY_MIN_CAPACITY - 1, NUMPY_MIN_CAPACITY, NUMPY_MIN_CAPACITY + 1],
)
def test_instr_pool_backend_parity_at_boundary(capacity):
    """Identical claim/unlink/column churn through both pool backends at
    capacities straddling the numpy switch point must leave identical
    column state — window size must never change simulation results."""
    window = capacity - 2
    a = ReorderBuffer(window, soa_backend="fallback")
    b = ReorderBuffer(window, soa_backend="numpy")
    assert a.pool.backend == "fallback" and b.pool.backend == "numpy"
    # fill to the brim, then churn
    for phase, (got_a, got_b) in enumerate(
        zip(_drive_pool(a, window), _drive_pool(b, window))
    ):
        assert got_a == got_b, f"phase {phase} diverged at capacity {capacity}"


@needs_numpy
def test_parity_under_env_overrides(monkeypatch):
    """The same churn through env-dispatched pools, both overrides."""
    results = {}
    for name in ("fallback", "numpy"):
        monkeypatch.setenv("REPRO_SOA", name)
        rob = ReorderBuffer(600)
        assert rob.pool.backend == name
        results[name] = _drive_pool(rob, 600)
    for phase, (got_a, got_b) in enumerate(
        zip(results["fallback"], results["numpy"])
    ):
        assert got_a == got_b, f"phase {phase} diverged"


@needs_numpy
def test_instr_pool_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SOA", "array")
    assert InstrPool(NUMPY_MIN_CAPACITY).backend == "fallback"
    monkeypatch.setenv("REPRO_SOA", "numpy")
    assert InstrPool(8).backend == "numpy"
