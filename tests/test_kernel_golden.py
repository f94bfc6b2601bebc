"""Kernel golden over the detailed core's fetch, squash and redispatch
paths: every :class:`~repro.core.CoreStats` field, compared exactly
against ``tests/goldens/kernel_golden.json``.

The five kernels at scale 0.03 run the machine paths that no other
golden pins on the kernels:

* CI-I, ``CI/loop`` and ``CI/return/loop/ltb`` at windows 64 and 512
  (instant and paced redispatch walks, the hardware heuristics' nested
  restarts, a window small enough to stall fetch and one large enough
  to hold whole loops);
* CI with ROB segments of 4 and 16 (the segmented capacity check and
  segment carry-over of fetch);
* CI with simple preemption (Appendix A.1.1's single-restart
  sequencer);
* ``CI/loop`` with instant redispatch (overturns inside a one-cycle
  walk on a heuristic machine);
* CI with oracle global history, the only configuration whose fetch
  asks for a window position (``ReorderBuffer.index_of``).

Each cell also checks the counters the performance ledger reads off a
finished machine: every fetched instruction claimed exactly one pool
slot (``pool.allocated_total``, the ledger's ``core.pool_claims``), and
the allocated slots are exactly the linked ones.

Regenerate the golden only for a change that is meant to move
detailed-core results::

    PYTHONPATH=src python tests/test_kernel_golden.py --mint
"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import Preemption, Processor
from repro.harness.experiments import load_bundle
from repro.machines import get_machine
from repro.workloads import WORKLOAD_NAMES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_golden.json"

SCALE = 0.03

#: (label, machine, config overrides), run on every kernel
VARIANTS = (
    *(
        (f"{machine}/w{window}", machine, {"window_size": window})
        for machine in ("CI-I", "CI/loop", "CI/return/loop/ltb")
        for window in (64, 512)
    ),
    *(
        (f"CI/seg{size}", "CI", {"segment_size": size})
        for size in (4, 16)
    ),
    ("CI/simple-preemption", "CI", {"preemption": Preemption.SIMPLE}),
    ("CI/loop/instant", "CI/loop", {"instant_redispatch": True}),
    ("CI/oracle-history", "CI", {"oracle_global_history": True}),
)

CELLS = [
    (f"{name}/{label}", name, machine, overrides)
    for name in WORKLOAD_NAMES
    for label, machine, overrides in VARIANTS
]


@lru_cache(maxsize=None)
def _bundle(name: str):
    return load_bundle(name, SCALE)


@lru_cache(maxsize=None)
def _run(key: str) -> Processor:
    _, name, machine, overrides = next(cell for cell in CELLS if cell[0] == key)
    bundle = _bundle(name)
    processor = Processor(
        bundle.program,
        get_machine(machine).core_config(**overrides),
        bundle.golden,
        bundle.reconv,
    )
    processor.run()
    return processor


def stats_fields(key: str) -> dict:
    return dataclasses.asdict(_run(key).stats)


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize("key", [cell[0] for cell in CELLS])
def test_core_stats_match_golden(golden, key):
    assert stats_fields(key) == golden[key]


@pytest.mark.parametrize("key", [cell[0] for cell in CELLS])
def test_pool_counters_match_the_window(key):
    processor = _run(key)
    assert processor.pool.allocated_total == processor.stats.fetched
    assert processor.pool.live == processor.rob.count


def mint() -> None:
    cells = {key: stats_fields(key) for key, *_ in CELLS}
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--mint"]:
        raise SystemExit(__doc__)
    mint()
