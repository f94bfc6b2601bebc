"""Reorder buffer structure tests: linked window, order keys and
segments — all over pool handles.

Slots enter the window through the core's one dispatch path, the
sequencer's fetch loop, and leave it through the core's squash path or
``ReorderBuffer.unlink`` (see ``tests/fetch_bench.py``)."""

import pytest
import random

from hypothesis import given, strategies as st

from repro.core import ReorderBuffer
from repro.core.rob import _SPACING, _TAIL_ORDER
from repro.core.soa import REF_SHIFT, TAIL

from fetch_bench import bench, dispatch, squash


def window_uids(proc):
    rob = proc.rob
    return [rob.pool.ref[h] >> REF_SHIFT for h in rob.iter_all()]


def window_orders(proc):
    rob = proc.rob
    return [rob.pool.order[h] for h in rob.iter_all()]


def assert_positions(proc):
    """Brute force: ``index_of`` of every linked slot — head and tail
    included — equals its position on a head-to-tail walk, and the walk
    length equals ``count``."""
    rob = proc.rob
    walk = list(rob.iter_all())
    assert len(walk) == rob.count
    assert [rob.index_of(h) for h in walk] == list(range(len(walk)))


def count_respaces(proc, monkeypatch):
    """Record the live count at every ``_respace`` of the machine's ROB."""
    rob = proc.rob
    respaces = []
    original = rob._respace

    def counted():
        respaces.append(rob.count)
        original()

    monkeypatch.setattr(rob, "_respace", counted)
    return respaces


def assert_orders_consistent(proc):
    orders = window_orders(proc)
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)
    assert_positions(proc)


class TestV2Scheme:
    def test_appends_are_monotonic_and_never_rewritten(self, monkeypatch):
        proc = bench(64)
        rob = proc.rob
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("append path must never trigger a respace"),
        )
        assigned = []
        for uid in range(64):
            h = dispatch(proc, uid)
            assigned.append(rob.pool.order[h])
        assert assigned == [(i + 1) * _SPACING for i in range(64)]
        # keys were assigned once and never touched again
        assert window_orders(proc) == assigned
        assert rob.pool.order[TAIL] == _TAIL_ORDER

    def test_restart_chain_fits_one_gap(self, monkeypatch):
        """A right-chained restart sequence (each instruction inserted
        after the previous one, the sequencer's dispatch pattern) fits
        hundreds of entries in one inter-key gap without a respace."""
        proc = bench(4096)
        rob = proc.rob
        a = dispatch(proc, 0)
        dispatch(proc, 1)
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("right-chained inserts must not respace"),
        )
        anchor = a
        for uid in range(2, 302):
            anchor = dispatch(proc, uid, after=anchor)
        assert window_uids(proc) == [0, *range(2, 302), 1]
        assert_orders_consistent(proc)

    def test_respace_fallback_restores_spacing(self):
        """Left-chained dense insertion (adversarial, not a dispatch
        pattern) exhausts gaps; the respace fallback keeps the order
        keys sorted, unique, and mirrored by the index."""
        proc = bench(4096)
        rob = proc.rob
        first = dispatch(proc, 0)
        dispatch(proc, 1)
        for uid in range(2, 202):
            dispatch(proc, uid, after=first)
        assert_orders_consistent(proc)
        assert rob.pool.order[TAIL] == _TAIL_ORDER
        # the tail-append sequence resumes above every live key
        h = dispatch(proc, 999)
        order_col = rob.pool.order
        assert order_col[h] > max(
            order_col[n] for n in rob.iter_all() if n != h
        )

    def test_append_after_remove_stays_monotonic(self):
        proc = bench(16)
        rob = proc.rob
        handles = [dispatch(proc, u) for u in range(8)]
        keep_order = rob.pool.order[handles[3]]
        for h in handles[4:]:
            squash(proc, h)  # squash the youngest half
        late = dispatch(proc, 100)
        assert rob.pool.order[late] > keep_order
        assert_orders_consistent(proc)


class TestLinkedList:
    def test_append_order(self):
        proc = bench(16)
        for uid in range(5):
            dispatch(proc, uid)
        assert window_uids(proc) == [0, 1, 2, 3, 4]

    def test_insert_after_middle(self):
        proc = bench(16)
        rob = proc.rob
        handles = [dispatch(proc, u) for u in range(3)]
        inserted = dispatch(proc, 99, after=handles[0])
        assert window_uids(proc) == [0, 99, 1, 2]
        assert rob.precedes(handles[0], inserted)
        assert rob.precedes(inserted, handles[1])

    def test_remove(self):
        proc = bench(16)
        rob = proc.rob
        handles = [dispatch(proc, u) for u in range(3)]
        squash(proc, handles[1])
        assert window_uids(proc) == [0, 2]
        assert rob.count == 2

    def test_order_keys_survive_dense_insertion(self, monkeypatch):
        proc = bench(4096)
        respaces = count_respaces(proc, monkeypatch)
        first = dispatch(proc, 0)
        for uid in range(1, 200):
            dispatch(proc, uid, after=first)  # always right after first
        uids = window_uids(proc)
        assert uids[0] == 0
        orders = window_orders(proc)
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)
        assert respaces, "dense insertion never exhausted a gap"

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=120))
    def test_random_ops_keep_order_consistent(self, ops):
        proc = bench(4096)
        live = []  # (uid, handle) pairs mirroring the window
        uid = 0
        for op in ops:
            if op in (0, 1) or not live:
                live.append((uid, dispatch(proc, uid)))
                uid += 1
            elif op == 2:
                idx = len(live) // 2
                h = dispatch(proc, uid, after=live[idx][1])
                live.insert(idx + 1, (uid, h))
                uid += 1
            else:
                squash(proc, live.pop(len(live) // 2)[1])
        assert window_uids(proc) == [u for u, _ in live]
        assert_orders_consistent(proc)


class TestIndexOfParity:
    """``index_of`` recounts a position from the links; it must agree
    with a brute-force head walk after every structural change —
    including a respace, which rewrites every key."""

    @staticmethod
    def _churn(proc, rng, steps):
        uid = 0
        for _ in range(steps):
            walk = list(proc.rob.iter_all())
            roll = rng.random()
            if not walk or roll < 0.45:
                dispatch(proc, uid)  # frontier append
            elif roll < 0.6:
                # left-chained insert after the head: exhausts the gap
                # below the head's successor (a respace)
                dispatch(proc, uid, after=walk[0])
            elif roll < 0.8:
                dispatch(proc, uid, after=rng.choice(walk))  # restart insert
            else:
                # squash anywhere: head, tail or the middle
                squash(proc, rng.choice((walk[0], walk[-1], rng.choice(walk))))
            uid += 1
            assert_positions(proc)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_through_key_rewrites(self, monkeypatch, seed):
        proc = bench(512)
        respaces = count_respaces(proc, monkeypatch)
        self._churn(proc, random.Random(seed), 600)
        assert respaces, "the churn never exercised a respace"

    def test_single_and_empty_window(self):
        proc = bench(4)
        rob = proc.rob
        only = dispatch(proc, 0)
        assert rob.index_of(only) == 0
        squash(proc, only)
        assert rob.count == 0 and rob.head is None


class TestSegments:
    def test_unsegmented_capacity(self):
        proc = bench(4, segment_size=1)
        rob = proc.rob
        for uid in range(4):
            h = dispatch(proc, uid)
            assert rob.pool.segment[h] is None  # no Segment per slot
        assert rob.full

    def test_segment_rounds_up(self):
        proc = bench(16, segment_size=4)
        rob = proc.rob
        dispatch(proc, 0)  # opens a 4-slot segment
        assert rob.slots_used == 4

    def test_contiguous_fill_shares_segment(self):
        proc = bench(16, segment_size=4)
        rob = proc.rob
        segments = {rob.pool.segment[dispatch(proc, uid)] for uid in range(4)}
        assert len(segments) == 1  # the frontier carries its segment
        assert rob.slots_used == 4

    def test_fragmentation_from_separate_contexts(self):
        proc = bench(16, segment_size=4)
        rob = proc.rob
        seg_a = rob.pool.segment[dispatch(proc, 0)]
        # a restart inserts with its own segment
        dispatch(proc, 1, after=rob.head)
        assert rob.slots_used == 8  # two partially-used segments
        assert seg_a.live == 1

    def test_segment_freed_when_empty(self):
        proc = bench(16, segment_size=4)
        rob = proc.rob
        handles = []
        for uid in range(4):
            handles.append(dispatch(proc, uid))  # the frontier's segment
        for h in handles[:3]:
            rob.unlink(h, h)  # retire
        assert rob.slots_used == 4  # last instruction holds the segment
        rob.unlink(handles[3], handles[3])
        assert rob.slots_used == 0

    def test_window_must_divide_by_segment(self):
        import pytest

        with pytest.raises(ValueError):
            ReorderBuffer(10, segment_size=4)
