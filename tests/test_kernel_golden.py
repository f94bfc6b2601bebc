"""Kernel cells of the detailed-core golden (``tests/test_core_golden.py``):
every :class:`~repro.core.CoreStats` field over the core's fetch, squash
and redispatch paths.

The five kernels at scale 0.03 run the machine paths that no other
group pins on the kernels:

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
"""

from __future__ import annotations

import pytest

import test_core_golden as core

KEYS = [key for key, *_ in core.kernel_cells()]


def test_golden_covers_every_cell():
    core.check_group_covered(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_core_stats_match_golden(key):
    core.check_cell(key)


@pytest.mark.parametrize("key", KEYS)
def test_pool_counters_match_the_window(key):
    core.check_pool_counters(key)
