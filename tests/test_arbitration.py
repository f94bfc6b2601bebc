"""Runtime check of the ready heap's same-cycle arbitration keys.

When several instructions become issue-eligible in the same cycle, the
ready heap breaks the tie by ``(eligible, order, ref)``; entries are
``(eligible, order, ref)`` int tuples whose ``order`` and packed
``ref`` are read from the pool columns at push time (ref order is fetch
order, ``ref = uid << REF_SHIFT | handle``).  Every ready-heap
push and pop runs through an instrumented ``heapq`` shim (installed by
monkeypatching the ``heappush``/``heappop`` globals of the modules that
touch the heap: the cycle loop in ``repro.core.processor``, the fetch
loop in ``stages.sequencer`` and ``_wake`` in ``stages.backend`` — no
permanent hot-path hooks), which verifies:

* the shim sees every entry: a popped entry it never saw pushed means a
  push site it does not patch, and every cell pops at least as many
  entries as it issued instructions (``CoreStats.issues_total``);
* every pushed entry has that layout, and its captured ``order`` and
  ``ref`` equal the pool columns at push time;
* the epoch clause: a popped live entry whose captured ``order`` no
  longer equals the slot's live ``order`` (a stale pop) is preceded by
  a ``_respace`` since its push.

The golden cells come from the core golden's one table
(``tests/test_core_golden.py``).  On its six seed cells, the committed
fuzz corpus and its BASE, CI and CI-I recovery cells, ``_respace``
never fires, so no pop is stale.  On its ``CI/loop`` and
``CI/return/loop`` recovery cells deeply nested restart chains exhaust
the order gaps and ``_respace`` does fire; there only the epoch clause
holds.
"""

from __future__ import annotations

import heapq as real_heapq
from pathlib import Path

import pytest

from repro.core import CoreConfig, Processor, ReconvPolicy
from repro.core import processor as processor_mod
from repro.core.rob import ReorderBuffer
from repro.core.soa import REF_MASK
from repro.core.stages import backend as backend_mod
from repro.core.stages import sequencer as sequencer_mod
from repro.fuzz import load_corpus
from repro.fuzz.oracle import program_bundle
from test_core_golden import CELLS, ROWS, SEED_SCALE, processor

#: the core golden's six seed cells (go and compress on BASE, CI and CI-I)
SEED_KEYS = [key for key, _, scale, *_ in CELLS if scale == SEED_SCALE]
#: the core golden's 25 recovery cells, whose restart stacks nest deepest
RECOVERY_KEYS = [key for key, name, *_ in CELLS if name.startswith("fam:")]
CORPUS_DIR = Path(__file__).parent / "corpus"
#: ready-heap entry layout, in tuple order
KEY_FIELDS = ("eligible", "order", "ref")
#: recovery-cell machines on which ``_respace`` must never fire
NO_RESPACE_MACHINES = ("BASE", "CI", "CI-I")


class HeapRecorder:
    """Key-checking ``heapq`` stand-in plus epoch bookkeeping.

    Entries are pure int tuples whose payload is a packed pool ref; the
    recorder latches the machine's :class:`~repro.core.soa.InstrPool`
    when the ReorderBuffer is built, and validates captured keys against
    the pool's live columns.  A popped entry whose captured ``ref`` no
    longer matches the slot's live ``ref`` is a *dead* entry (the slot
    was recycled) — the simulator discards it, so key staleness is
    vacuous there."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0
        self.stale_pops = 0
        self.dead_pops = 0
        self.respaces = 0
        self.violations: list[str] = []
        #: the live machine's instruction pool (set by the install hook)
        self.pool = None
        #: rewrite-epoch counter; bumped by the _respace wrapper
        self.epoch = 0
        #: id(entry) -> (epoch at push, entry) — the entry ref keeps the
        #: id unique for as long as the record exists
        self._entry_epoch: dict[int, tuple[int, tuple]] = {}

    # -- the two heapq entry points the stages use ----------------------

    def heappush(self, heap, entry):
        self.pushes += 1
        pool = self.pool
        h = entry[-1] & REF_MASK
        if len(entry) != len(KEY_FIELDS):
            self.violations.append(f"push arity {len(entry)} != {len(KEY_FIELDS)}")
        elif entry[1] != pool.order[h] or entry[2] != pool.ref[h]:
            self.violations.append(
                f"push key ({entry[1]}, {entry[2]}) != pool columns "
                f"({pool.order[h]}, {pool.ref[h]}) at push time"
            )
        self._entry_epoch[id(entry)] = (self.epoch, entry)
        real_heapq.heappush(heap, entry)

    def heappop(self, heap):
        entry = real_heapq.heappop(heap)
        self.pops += 1
        record = self._entry_epoch.get(id(entry))
        if record is None or record[1] is not entry:
            self.violations.append(
                f"popped {entry} that no patched push site pushed"
            )
            return entry
        pushed_epoch = record[0]
        pool = self.pool
        h = entry[-1] & REF_MASK
        if pool.ref[h] != entry[2]:
            self.dead_pops += 1  # slot recycled: entry is self-invalidated
        elif entry[1] != pool.order[h]:
            self.stale_pops += 1
            if pushed_epoch == self.epoch:
                self.violations.append(
                    f"stale pop (key order {entry[1]}, live {pool.order[h]}) "
                    f"with no respace between push and pop"
                )
        return entry

    def install(self, monkeypatch):
        monkeypatch.setattr(processor_mod, "heappush", self.heappush)
        monkeypatch.setattr(processor_mod, "heappop", self.heappop)
        monkeypatch.setattr(sequencer_mod, "heappush", self.heappush)
        monkeypatch.setattr(backend_mod, "heappush", self.heappush)
        recorder = self
        orig_init = ReorderBuffer.__init__
        orig_respace = ReorderBuffer._respace

        def init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            recorder.pool = self.pool

        def respace(self):
            recorder.respaces += 1
            recorder.epoch += 1
            return orig_respace(self)

        monkeypatch.setattr(ReorderBuffer, "__init__", init)
        monkeypatch.setattr(ReorderBuffer, "_respace", respace)


def _check_epochs(recorder: HeapRecorder, stats, what: str) -> None:
    assert not recorder.violations, f"{what}: {recorder.violations[:5]}"
    # Every issue pops its entry: fewer pops means an unpatched pop site.
    assert recorder.pops >= stats.issues_total > 0, (
        f"{what}: {recorder.pops} pops for {stats.issues_total} issues"
    )


def _check_clauses(recorder: HeapRecorder, stats, what: str) -> None:
    _check_epochs(recorder, stats, what)
    assert recorder.respaces == 0, f"{what}: _respace fired {recorder.respaces}x"
    assert recorder.stale_pops == 0, (
        f"{what}: {recorder.stale_pops} stale pops without rewrites"
    )


@pytest.mark.parametrize(
    "key", SEED_KEYS,
    ids=[f"{ROWS[key][1]}-{ROWS[key][3]}" for key in SEED_KEYS],
)
def test_golden_cells_obey_contract(key, monkeypatch):
    """Instrumented tie-break logging over the 6 core golden seed cells."""
    recorder = HeapRecorder()
    recorder.install(monkeypatch)
    stats = processor(key).run()
    _check_clauses(recorder, stats, key)


def test_corpus_obeys_contract():
    """The committed fuzz reproducers, instrumented.

    Reproducers are minimized divergence cases — precisely the programs
    that historically stressed squash/redispatch, where restart inserts
    concentrate.
    """
    reproducers = load_corpus(CORPUS_DIR)
    assert reproducers, "committed corpus is empty"
    config = CoreConfig(window_size=256, reconv_policy=ReconvPolicy.POSTDOM)
    for rep in reproducers:
        bundle = program_bundle(rep.program())
        recorder = HeapRecorder()
        with pytest.MonkeyPatch.context() as mp:
            recorder.install(mp)
            stats = Processor(
                bundle.program, config, bundle.golden, bundle.reconv
            ).run()
        _check_clauses(recorder, stats, rep.name)


@pytest.mark.parametrize("key", RECOVERY_KEYS)
def test_recovery_cells_obey_epoch_clause(key, monkeypatch):
    """The 25 recovery cells, whose restart stacks nest deepest.

    ``_respace`` fires on the loop-heuristic machines; the epoch clause
    must still hold there, and on BASE, CI and CI-I it must not fire.
    """
    recorder = HeapRecorder()
    recorder.install(monkeypatch)
    stats = processor(key).run()
    if ROWS[key][3] in NO_RESPACE_MACHINES:
        _check_clauses(recorder, stats, key)
    else:
        _check_epochs(recorder, stats, key)
