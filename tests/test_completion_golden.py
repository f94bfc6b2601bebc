"""Completion cells of the detailed-core golden
(``tests/test_core_golden.py``): every :class:`~repro.core.CoreStats`
field over the gating paths of Appendix A.2's completion models, which
decide when a computed branch may complete and trigger recovery:

* the five kernels x {BASE, CI} x the four
  :class:`~repro.core.CompletionModel`\\ s (in-order branch gating,
  resolved-store gating, both, neither) at scale 0.03, window 256;
* CI with the ``hide_false_mispredictions`` oracle under ``spec-C`` and
  ``spec`` on every kernel, the one configuration whose completion
  condition is not a gate (it depends on repredicts and window
  positions).

The seed cells (``tests/test_equivalence.py``) run ``spec-C`` only, on
go and compress; these cells pin the other gates on all five kernels,
so a change to how pending branches are retried (the completion-phase
sweep in :mod:`repro.core.stages.backend`) cannot move any of them
unnoticed.  They were minted before pending-branch retries were tied
to gate-opening events.
"""

from __future__ import annotations

import pytest

import test_core_golden as core

KEYS = [key for key, *_ in core.completion_cells()]


def test_golden_covers_every_cell():
    core.check_group_covered(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_core_stats_match_golden(key):
    core.check_cell(key)
