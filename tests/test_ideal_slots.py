"""Slot-id lifecycle of the columnar ideal scheduler.

:class:`~repro.ideal.IdealScheduler` keeps each in-flight instance in
slot columns indexed by an id from a free list of ``window_size`` ids;
fetch takes one, retire and squash give it back.  After ``run()`` every
id must be free exactly once: a leaked id (owned by no instance and
not returned, even if the free list ran dry) or a double-freed one
(returned twice) fails by name.  The cells are go at
scale 0.05 on all six models at windows 16 and 64, where restart
segments evict in-window instructions and full and selective squashes
free ids in bulk.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.ideal import IdealConfig, IdealModel, IdealScheduler, annotate
from repro.workloads import build_workload

CELLS = [(model, window) for model in IdealModel for window in (16, 64)]


@pytest.fixture(scope="module")
def go_trace():
    return annotate(build_workload("go", 0.05).program)


@pytest.mark.parametrize(
    "model,window", CELLS, ids=[f"{m.value}/w{w}" for m, w in CELLS]
)
def test_every_slot_id_is_free_after_run(go_trace, model, window):
    trace = go_trace
    if model is IdealModel.ORACLE:  # as simulate() runs it: no mispredictions
        trace = dataclasses.replace(trace, mispredictions={})
    scheduler = IdealScheduler(trace, model, IdealConfig(window_size=window))
    evictions = 0
    evict = scheduler._evict

    def counting_evict(seq: int) -> int:
        nonlocal evictions
        evictions += 1
        return evict(seq)

    scheduler._evict = counting_evict
    ran_dry = False
    try:
        scheduler.run()
    except IndexError:  # fetch popped an empty free list
        if scheduler.free:
            raise
        ran_dry = True

    columns = (
        scheduler.ref_of, scheduler.key_of, scheduler.lat_of,
        scheduler.ready_of, scheduler.pending_of,
    )
    assert [len(column) for column in columns] == [window] * len(columns)
    free = Counter(scheduler.free)
    # an id that no live instance owns must be on the free list
    leaked = [
        sid for sid in range(window)
        if scheduler.ref_of[sid] == -1 and sid not in free
    ]
    double_freed = sorted(sid for sid, count in free.items() if count > 1)
    assert leaked == [], f"slot ids never returned to the free list: {leaked}"
    assert double_freed == [], f"slot ids freed twice: {double_freed}"
    assert not ran_dry
    assert sorted(free) == list(range(window))
    assert all(sid < 0 for sid in scheduler.window)
    if model.exploits_ci:
        assert evictions > 0  # the cell exercises restart eviction
