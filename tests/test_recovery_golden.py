"""Recovery cells of the detailed-core golden
(``tests/test_core_golden.py``): every :class:`~repro.core.CoreStats`
field on programs whose restart sequences nest deeply.

The kernels' restart stacks stay shallow.  These cells run one
generated ``fam:*`` program per workload family at the fuzz campaign's
scale (0.5) on the machines that nest restart sequences (Appendix A.1)
the deepest:

* BASE, as the no-control-independence reference;
* CI and CI-I, exact post-dominator reconvergence;
* ``CI/loop`` and ``CI/return/loop``, the loop heuristics, whose
  restart stacks reach about 200 contexts on the branchy, loopy and
  chains programs.

Each program was picked from campaign seed 0 because every one of these
machines runs it cleanly (its final architectural state matches the
functional reference) and because it nests restarts deeply.  So a change
to context pruning, squash order or per-instruction pool state that
moves any statistic fails here.
"""

from __future__ import annotations

import pytest

import test_core_golden as core

KEYS = [key for key, *_ in core.recovery_cells()]


def test_golden_covers_every_cell():
    core.check_group_covered(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_core_stats_match_golden(key):
    core.check_cell(key)
