"""Golden equivalence suite: every simulator optimization must
reproduce a committed golden generation's statistics bit-for-bit.

Two golden generations exist, one per ROB order scheme:

* ``tests/goldens/equivalence.pkl`` — the **v1** generation, produced by
  the seed (pre-optimization) implementation under the midpoint/renumber
  order-key discipline.  It is never regenerated.
* ``tests/goldens/equivalence_v2.pkl`` — the **v2** generation, minted
  by ``examples/mint_goldens.py`` under the renumber-free dense order
  scheme after the differential oracle showed that on the golden
  workloads the v1->v2 stats shift is confined to the ready-heap
  tie-break-sensitive counters (architectural state, retired counts and
  accounting invariants identical; see
  ``test_order_scheme_divergence_is_tiebreak_only``).  Beyond the
  golden/fuzz corpus the schemes are distinct same-cycle arbitration
  policies and recovery-heavy cells can cascade into timing statistics
  — ``ORDER_SCHEME_INVARIANT_FIELDS`` in :mod:`repro.core.stats`
  documents what must still agree, and ``examples/core_bench.py``
  gates it.

Every core cell runs under *both* schemes against its matching
generation — no tolerances, every golden key compared exactly.  The
idealized models never touch the ROB, so their cells must be identical
across generations (asserted below) and are gated once.

The detailed cells are additionally replayed through the array-batched
driver (all three machines of a workload interleaved cycle-by-cycle in
one :func:`repro.harness.batch.run_batch` loop) — the batched kernel
must hit the same goldens, byte for byte.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.core import ORDER_SCHEMES, CoreConfig, Processor, ReconvPolicy
from repro.harness.batch import run_batch
from repro.harness.experiments import load_bundle, run_core
from repro.ideal.models import IdealConfig, IdealModel
from repro.ideal.scheduler import simulate

GOLDEN_PATHS = {
    "v1": Path(__file__).parent / "goldens" / "equivalence.pkl",
    "v2": Path(__file__).parent / "goldens" / "equivalence_v2.pkl",
}
WORKLOADS = ("compress", "go")
SCALE = 0.12

CORE_MACHINES = {
    "BASE": dict(window_size=256, reconv_policy=ReconvPolicy.NONE),
    "CI": dict(window_size=256, reconv_policy=ReconvPolicy.POSTDOM),
    "CI-I": dict(
        window_size=256,
        reconv_policy=ReconvPolicy.POSTDOM,
        instant_redispatch=True,
    ),
}

#: stats a scheme change may legitimately move: issue-order tie-breaks
#: reorder same-cycle-eligible instructions, shifting issue accounting
#: and the per-cycle stage-activity diagnostics.  Everything else must
#: be identical across generations (canonical set: repro.core.stats).
from repro.core import TIEBREAK_SENSITIVE_FIELDS as TIEBREAK_SENSITIVE


@pytest.fixture(scope="module")
def goldens():
    loaded = {}
    for scheme, path in GOLDEN_PATHS.items():
        with path.open("rb") as f:
            loaded[scheme] = pickle.load(f)
    return loaded


@pytest.fixture(scope="module")
def bundles():
    return {name: load_bundle(name, SCALE) for name in WORKLOADS}


def _assert_matches(golden: dict, current: dict, what: str) -> None:
    mismatches = {
        key: (golden[key], current[key])
        for key in golden
        if current.get(key) != golden[key]
    }
    assert not mismatches, f"{what} diverged from its golden generation: {mismatches}"


@pytest.mark.parametrize("scheme", ORDER_SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", sorted(CORE_MACHINES))
def test_core_stats_match_goldens(goldens, bundles, scheme, workload, machine):
    config = CoreConfig(order_scheme=scheme, **CORE_MACHINES[machine])
    stats = run_core(bundles[workload], config)
    _assert_matches(
        goldens[scheme][("core", workload, machine)],
        dataclasses.asdict(stats),
        f"{workload}/{machine} ({scheme})",
    )


@pytest.mark.parametrize("scheme", ORDER_SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_batched_core_row_matches_goldens(goldens, bundles, scheme, workload):
    """One interleaved batch per workload vs goldens."""
    bundle = bundles[workload]
    names = sorted(CORE_MACHINES)
    processors = [
        Processor(
            bundle.program,
            CoreConfig(order_scheme=scheme, **CORE_MACHINES[name]),
            bundle.golden,
            bundle.reconv,
        )
        for name in names
    ]
    for name, stats in zip(names, run_batch(processors)):
        _assert_matches(
            goldens[scheme][("core", workload, name)],
            dataclasses.asdict(stats),
            f"{workload}/{name} batched ({scheme})",
        )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("model", list(IdealModel), ids=lambda m: m.value)
def test_ideal_stats_match_seed(goldens, bundles, workload, model):
    golden = goldens["v1"][("ideal", workload, model.value)]
    r = simulate(bundles[workload].annotated(), model, IdealConfig(window_size=256))
    current = {
        "cycles": r.cycles,
        "retired": r.retired,
        "fetched_wrong_path": r.fetched_wrong_path,
        "full_squashes": r.full_squashes,
        "selective_squashes": r.selective_squashes,
        "detections": r.detections,
    }
    assert current == golden, (
        f"{workload}/{model.value} diverged from the seed implementation"
    )


def test_golden_generations_share_structure(goldens):
    """Both pickles cover the same 18 cells, the ideal cells (no ROB)
    are identical across generations, and the core cells differ only in
    tie-break-sensitive issue accounting."""
    v1, v2 = goldens["v1"], goldens["v2"]
    assert set(v1) == set(v2)
    for key in v1:
        kind = key[0]
        if kind == "ideal":
            assert v1[key] == v2[key], f"ideal cell {key} must be scheme-independent"
            continue
        shared = set(v1[key]) & set(v2[key])
        moved = {f for f in shared if v1[key][f] != v2[key][f]}
        assert moved <= TIEBREAK_SENSITIVE, (
            f"core cell {key}: fields {sorted(moved - TIEBREAK_SENSITIVE)} "
            "moved between golden generations but are not tie-break-sensitive"
        )


def test_default_scheme_hits_v2_goldens(goldens, bundles, monkeypatch):
    """With no knob and no REPRO_ORDER, a stock CoreConfig must land on
    the v2 generation — the default gate and the default scheme agree."""
    monkeypatch.delenv("REPRO_ORDER", raising=False)
    stats = run_core(bundles["go"], CoreConfig(**CORE_MACHINES["BASE"]))
    _assert_matches(
        goldens["v2"][("core", "go", "BASE")],
        dataclasses.asdict(stats),
        "go/BASE (default scheme)",
    )
