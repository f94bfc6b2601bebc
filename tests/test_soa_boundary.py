"""InstrPool / ReorderBuffer churn across pool capacities.

A pool's capacity is the window plus the two boundary slots, and the
free list hands out handles from the bottom up, so the same dispatch /
restart-insert / squash-and-recycle churn, driven through the core's
fetch loop and squash path (``tests/fetch_bench.py``), must leave the
same window — same handles, links, order keys, states and refs —
whatever the capacity, as long as the churn fits.  A capacity-dependent behavioral
difference would make window size silently change simulation results.
These tests drive identical churn through reorder buffers at a
paper-scale window and at large capacities (around 4k slots and
beyond) and require identical column state over the slots the churn
touched, plus the free-list / window partition at the end.  The pool has
one implementation, plain-list columns, so the package must not need
numpy either: the last test checks that in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.soa import TAIL, ST_COMPLETED

from fetch_bench import bench, dispatch, squash

#: dispatches per churn run: fits the 256-entry reference window
CHURN = 250


def _drive_pool(proc, count: int) -> list:
    """Deterministic claim/mutate/unlink churn through the core's one
    dispatch and one squash path; returns state snapshots of the slots
    the churn can have touched."""
    pool = proc.pool
    handles = []
    uid = 0
    for _ in range(count):
        # every 7th dispatch is a restart-style insert after an older slot
        after = handles[len(handles) // 2] if uid % 7 == 6 else None
        h = dispatch(proc, uid, after=after, cycle=uid % 17)
        pool.state[h] = ST_COMPLETED if uid % 3 else 0
        handles.append(h)
        uid += 1
    # squash-and-recycle waves over the middle of the allocation
    for wave in range(3):
        victims = handles[len(handles) // 4 : len(handles) // 2 : 2 + wave]
        for h in victims:
            squash(proc, h)
            handles.remove(h)
        for _ in victims:
            handles.append(dispatch(proc, uid, cycle=uid % 17))
            uid += 1
    touched = count + 2
    return [
        pool.order[:touched],
        pool.state[:touched],
        pool.prev[:touched],
        pool.next[:touched],
        pool.ref[:touched],
        pool.dispatch_cycle[:touched],
        list(proc.rob.iter_all()),
        (pool.live, pool.allocated_total),
    ]


def _assert_partition(proc) -> None:
    """Linked window and free list partition the real slots exactly."""
    rob = proc.rob
    pool = rob.pool
    linked = list(rob.iter_all())
    assert len(linked) == rob.count == pool.live
    assert sorted(linked + pool._free) == list(range(TAIL + 1, pool.capacity))


@pytest.mark.parametrize("capacity", [4095, 4096, 4097, 8192])
def test_churn_is_capacity_independent(capacity):
    reference = bench(256)
    expected = _drive_pool(reference, CHURN)
    _assert_partition(reference)
    proc = bench(capacity - 2)  # the window plus two boundary slots
    assert proc.pool.capacity == capacity
    for phase, (got, want) in enumerate(zip(_drive_pool(proc, CHURN), expected)):
        assert got == want, f"phase {phase} diverged at capacity {capacity}"
    _assert_partition(proc)


def test_full_window_churn_at_large_capacity():
    """Fill a large window to the brim, then churn: the pool never
    exhausts and the partition holds."""
    window = 4094
    proc = bench(window)
    _drive_pool(proc, window)
    assert proc.rob.full and not proc.pool._free
    _assert_partition(proc)


def test_columns_are_plain_lists():
    pool = bench(64).pool
    for name in ("order", "prev", "next", "state", "ref", "pc"):
        assert type(getattr(pool, name)) is list, name


def test_simulation_never_imports_numpy():
    """The pool has one stdlib implementation: importing the package and
    running a detailed cell must not load numpy (checked in a fresh
    interpreter, since this test process may have imported it)."""
    script = (
        "import sys\n"
        "from repro.core import simulate_core\n"
        "from repro.harness.experiments import load_bundle\n"
        "from repro.machines import get_machine\n"
        "b = load_bundle('go', 0.02)\n"
        "stats = simulate_core(b.program, "
        "get_machine('BASE').core_config(window_size=64), b.golden, b.reconv)\n"
        "assert stats.retired > 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
