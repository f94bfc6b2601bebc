"""Reorder buffer structure tests: linked window, order keys and
segments — all over pool handles."""

import pytest
import random

from hypothesis import given, strategies as st

from repro.core import ReorderBuffer
from repro.core.rob import _SPACING, _TAIL_ORDER
from repro.core.soa import TAIL
from repro.isa import Instruction, Op

_NOP = Instruction(Op.NOP)


def dispatch(rob, uid, after=None, segment=None):
    """Claim and link one slot the way the sequencer does (pc = uid):
    at the tail, or after slot ``after`` for a restart insert."""
    return rob.claim(uid, uid, _NOP, 0, after, segment)


def window_uids(rob):
    return [rob.pool.uid[h] for h in rob.iter_all()]


def window_orders(rob):
    return [rob.pool.order[h] for h in rob.iter_all()]


def assert_positions(rob):
    """Brute force: ``index_of`` of every linked slot — head and tail
    included — equals its position on a head-to-tail walk, and the walk
    length equals ``count``."""
    walk = list(rob.iter_all())
    assert len(walk) == rob.count
    assert [rob.index_of(h) for h in walk] == list(range(len(walk)))


def count_respaces(rob, monkeypatch):
    """Record the live count at every ``_respace`` of ``rob``."""
    respaces = []
    original = rob._respace

    def counted():
        respaces.append(rob.count)
        original()

    monkeypatch.setattr(rob, "_respace", counted)
    return respaces


def assert_orders_consistent(rob):
    orders = window_orders(rob)
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)
    assert_positions(rob)


class TestV2Scheme:
    def test_appends_are_monotonic_and_never_rewritten(self, monkeypatch):
        rob = ReorderBuffer(64)
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("append path must never trigger a respace"),
        )
        assigned = []
        for uid in range(64):
            h = dispatch(rob, uid)
            assigned.append(rob.pool.order[h])
        assert assigned == [(i + 1) * _SPACING for i in range(64)]
        # keys were assigned once and never touched again
        assert window_orders(rob) == assigned
        assert rob.pool.order[TAIL] == _TAIL_ORDER

    def test_restart_chain_fits_one_gap(self, monkeypatch):
        """A right-chained restart sequence (each instruction inserted
        after the previous one, the sequencer's dispatch pattern) fits
        hundreds of entries in one inter-key gap without a respace."""
        rob = ReorderBuffer(4096)
        a = dispatch(rob, 0)
        dispatch(rob, 1)
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("right-chained inserts must not respace"),
        )
        anchor = a
        for uid in range(2, 302):
            anchor = dispatch(rob, uid, after=anchor)
        assert window_uids(rob) == [0, *range(2, 302), 1]
        assert_orders_consistent(rob)

    def test_respace_fallback_restores_spacing(self):
        """Left-chained dense insertion (adversarial, not a dispatch
        pattern) exhausts gaps; the respace fallback keeps the order
        keys sorted, unique, and mirrored by the index."""
        rob = ReorderBuffer(4096)
        first = dispatch(rob, 0)
        dispatch(rob, 1)
        for uid in range(2, 202):
            dispatch(rob, uid, after=first)
        assert_orders_consistent(rob)
        assert rob.pool.order[TAIL] == _TAIL_ORDER
        # the tail-append sequence resumes above every live key
        h = dispatch(rob, 999)
        order_col = rob.pool.order
        assert order_col[h] > max(
            order_col[n] for n in rob.iter_all() if n != h
        )

    def test_append_after_remove_stays_monotonic(self):
        rob = ReorderBuffer(16)
        handles = [dispatch(rob, u) for u in range(8)]
        keep_order = rob.pool.order[handles[3]]
        for h in handles[4:]:
            rob.remove(h)  # squash the youngest half
        late = dispatch(rob, 100)
        assert rob.pool.order[late] > keep_order
        assert_orders_consistent(rob)


class TestLinkedList:
    def test_append_order(self):
        rob = ReorderBuffer(16)
        for uid in range(5):
            dispatch(rob, uid)
        assert window_uids(rob) == [0, 1, 2, 3, 4]

    def test_insert_after_middle(self):
        rob = ReorderBuffer(16)
        handles = [dispatch(rob, u) for u in range(3)]
        inserted = dispatch(rob, 99, after=handles[0])
        assert window_uids(rob) == [0, 99, 1, 2]
        assert rob.precedes(handles[0], inserted)
        assert rob.precedes(inserted, handles[1])

    def test_remove(self):
        rob = ReorderBuffer(16)
        handles = [dispatch(rob, u) for u in range(3)]
        rob.remove(handles[1])
        assert window_uids(rob) == [0, 2]
        assert rob.count == 2

    def test_order_keys_survive_dense_insertion(self, monkeypatch):
        rob = ReorderBuffer(4096)
        respaces = count_respaces(rob, monkeypatch)
        first = dispatch(rob, 0)
        for uid in range(1, 200):
            dispatch(rob, uid, after=first)  # always right after first
        uids = window_uids(rob)
        assert uids[0] == 0
        orders = window_orders(rob)
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)
        assert respaces, "dense insertion never exhausted a gap"

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=120))
    def test_random_ops_keep_order_consistent(self, ops):
        rob = ReorderBuffer(4096)
        live = []  # (uid, handle) pairs mirroring the window
        uid = 0
        for op in ops:
            if op in (0, 1) or not live:
                live.append((uid, dispatch(rob, uid)))
                uid += 1
            elif op == 2:
                idx = len(live) // 2
                h = dispatch(rob, uid, after=live[idx][1])
                live.insert(idx + 1, (uid, h))
                uid += 1
            else:
                rob.remove(live.pop(len(live) // 2)[1])
        assert window_uids(rob) == [u for u, _ in live]
        assert_orders_consistent(rob)


class TestIndexOfParity:
    """``index_of`` recounts a position from the links; it must agree
    with a brute-force head walk after every structural change —
    including a respace, which rewrites every key."""

    @staticmethod
    def _churn(rob, rng, steps):
        uid = 0
        for _ in range(steps):
            walk = list(rob.iter_all())
            roll = rng.random()
            if not walk or roll < 0.45:
                dispatch(rob, uid)  # frontier append
            elif roll < 0.6:
                # left-chained insert after the head: exhausts the gap
                # below the head's successor (a respace)
                dispatch(rob, uid, after=walk[0])
            elif roll < 0.8:
                dispatch(rob, uid, after=rng.choice(walk))  # restart insert
            else:
                # squash anywhere: head, tail or the middle
                rob.remove(rng.choice((walk[0], walk[-1], rng.choice(walk))))
            uid += 1
            assert_positions(rob)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_through_key_rewrites(self, monkeypatch, seed):
        rob = ReorderBuffer(512)
        respaces = count_respaces(rob, monkeypatch)
        self._churn(rob, random.Random(seed), 600)
        assert respaces, "the churn never exercised a respace"

    def test_single_and_empty_window(self):
        rob = ReorderBuffer(4)
        only = dispatch(rob, 0)
        assert rob.index_of(only) == 0
        rob.remove(only)
        assert rob.count == 0 and rob.head is None


class TestSegments:
    def test_unsegmented_capacity(self):
        rob = ReorderBuffer(4, segment_size=1)
        for uid in range(4):
            h = dispatch(rob, uid)
            assert rob.pool.segment[h] is None  # no Segment per slot
        assert rob.full

    def test_segment_rounds_up(self):
        rob = ReorderBuffer(16, segment_size=4)
        dispatch(rob, 0)  # opens a 4-slot segment
        assert rob.slots_used == 4

    def test_contiguous_fill_shares_segment(self):
        rob = ReorderBuffer(16, segment_size=4)
        seg = None
        for uid in range(4):
            seg = rob.pool.segment[dispatch(rob, uid, segment=seg)]
        assert rob.slots_used == 4

    def test_fragmentation_from_separate_contexts(self):
        rob = ReorderBuffer(16, segment_size=4)
        seg_a = rob.pool.segment[dispatch(rob, 0)]
        # a restart inserts with its own segment
        dispatch(rob, 1, after=rob.head)
        assert rob.slots_used == 8  # two partially-used segments
        assert seg_a.live == 1

    def test_segment_freed_when_empty(self):
        rob = ReorderBuffer(16, segment_size=4)
        handles = []
        seg = None
        for uid in range(4):
            handles.append(dispatch(rob, uid, segment=seg))
            seg = rob.pool.segment[handles[-1]]
        for h in handles[:3]:
            rob.retire(h)
        assert rob.slots_used == 4  # last instruction holds the segment
        rob.retire(handles[3])
        assert rob.slots_used == 0

    def test_window_must_divide_by_segment(self):
        import pytest

        with pytest.raises(ValueError):
            ReorderBuffer(10, segment_size=4)
