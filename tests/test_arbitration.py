"""Dynamic verification of the same-cycle arbitration contract.

The declarative spec (:data:`repro.analysis.arbitration.CONTRACT`) is
checked statically by ``repro.analysis.staticcheck.contract``; this
module holds it to account at runtime.  Every ready-heap push and pop
on the golden core cells and the committed fuzz corpus runs through an
instrumented ``heapq`` shim (installed by monkeypatching the module
globals the stages bind — no permanent hot-path hooks), which verifies:

* every pushed entry has the declared key composition, captured from
  the payload node at push time;
* captured keys still equal the node's live ``order`` at pop time and
  ``_respace`` never fires (the keys-stable clause).
"""

from __future__ import annotations

import heapq as real_heapq
from pathlib import Path

import pytest

from repro.analysis.arbitration import CONTRACT
from repro.core import CoreConfig, Processor, ReconvPolicy
from repro.core.rob import ReorderBuffer
from repro.core.stages import backend as backend_mod
from repro.core.stages import sequencer as sequencer_mod
from repro.fuzz import load_corpus
from repro.fuzz.oracle import program_bundle
from repro.harness.experiments import load_bundle, run_core

SCALE = 0.12
WORKLOADS = ("compress", "go")
CORE_MACHINES = {
    "BASE": dict(window_size=256, reconv_policy=ReconvPolicy.NONE),
    "CI": dict(window_size=256, reconv_policy=ReconvPolicy.POSTDOM),
    "CI-I": dict(
        window_size=256,
        reconv_policy=ReconvPolicy.POSTDOM,
        instant_redispatch=True,
    ),
}
CORPUS_DIR = Path(__file__).parent / "corpus"


class HeapRecorder:
    """Contract-checking ``heapq`` stand-in plus epoch bookkeeping.

    Entries are pure int tuples whose payload is a pool handle; the
    recorder latches the machine's :class:`~repro.core.soa.InstrPool`
    when the ReorderBuffer is built, and validates captured keys against
    the pool's live columns.  A popped entry whose captured ``uid`` no
    longer matches the slot's live ``uid`` is a *dead* entry (the slot
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
        key = CONTRACT.key
        pool = self.pool
        h = entry[-1]
        if len(entry) != len(key.fields):
            self.violations.append(f"push arity {len(entry)} != {len(key.fields)}")
        elif entry[1] != pool.order[h] or entry[2] != pool.uid[h]:
            self.violations.append(
                f"push key ({entry[1]}, {entry[2]}) != pool columns "
                f"({pool.order[h]}, {pool.uid[h]}) at push time"
            )
        self._entry_epoch[id(entry)] = (self.epoch, entry)
        real_heapq.heappush(heap, entry)

    def heappop(self, heap):
        entry = real_heapq.heappop(heap)
        self.pops += 1
        pushed_epoch, _ = self._entry_epoch[id(entry)]
        pool = self.pool
        h = entry[-1]
        if pool.uid[h] != entry[2]:
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
        monkeypatch.setattr(backend_mod, "heapq", self)
        monkeypatch.setattr(sequencer_mod, "heappush", self.heappush)
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


def _check_clauses(recorder: HeapRecorder, what: str) -> None:
    assert not recorder.violations, f"{what}: {recorder.violations[:5]}"
    assert recorder.pops > 0, f"{what}: heap never popped"
    assert recorder.respaces == 0, (
        f"{what}: _respace fired {recorder.respaces}x — the "
        f"never-expected fallback ran; the keys-stable clause is void"
    )
    assert recorder.stale_pops == 0, (
        f"{what}: {recorder.stale_pops} stale pops without rewrites"
    )


@pytest.fixture(scope="module")
def bundles():
    return {name: load_bundle(name, SCALE) for name in WORKLOADS}


@pytest.mark.parametrize("machine", sorted(CORE_MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_cells_obey_contract(bundles, workload, machine, monkeypatch):
    """Instrumented tie-break logging over the 6 core golden cells."""
    recorder = HeapRecorder()
    recorder.install(monkeypatch)
    run_core(bundles[workload], CoreConfig(**CORE_MACHINES[machine]))
    _check_clauses(recorder, f"{workload}/{machine}")


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
            Processor(
                bundle.program, config, bundle.golden, bundle.reconv
            ).run()
        _check_clauses(recorder, rep.name)


def test_contract_static_checks_are_clean():
    """The static half of the gate, runnable straight from pytest."""
    from repro.analysis.staticcheck import check_contract

    report = check_contract()
    assert report.clean, report.format()


def test_static_checker_detects_contract_drift():
    """Tampered specs must fail: wrong site, wrong rewrite routine."""
    from dataclasses import replace

    from repro.analysis.arbitration import HeapSiteSpec
    from repro.analysis.staticcheck import RepoIndex, source_root
    from repro.analysis.staticcheck.contract import check_contract

    index = RepoIndex(source_root())

    moved_pop = replace(
        CONTRACT,
        pop_sites=(HeapSiteSpec("core.stages.retire", "_retire_phase", "pop"),),
    )
    report = check_contract(index, moved_pop)
    messages = [d.message for d in report.errors()]
    assert any("undeclared ready-heap pop" in m for m in messages)
    assert any("not found" in m for m in messages)

    wrong_rewrite = replace(CONTRACT, rewrite_routine="_rekey_all")
    report = check_contract(index, wrong_rewrite)
    assert any(
        d.symbol == "ReorderBuffer._place" and "_rekey_all" in d.message
        for d in report.errors()
    ), report.format()

    missing = replace(CONTRACT, placement_routine="_place_midpoint")
    report = check_contract(index, missing)
    assert any(
        "placement routine missing" in d.message for d in report.errors()
    ), report.format()
