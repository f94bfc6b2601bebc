"""A naive, independent reference for the ``oracle`` idealized model.

Written from the paper's Section 2.1-2.2 machine description, not from
:mod:`repro.ideal.scheduler`'s loop, so the two can check each other
(the replay-one-trace-under-two-schedulers pattern).  With perfect
branch prediction the machine is:

* a ``window_size``-entry instruction window, filled in program order;
* fetch, issue and retire each up to 16 instructions per cycle;
* two front-end stages (fetch, dispatch): an instruction fetched in
  cycle ``f`` may issue no earlier than cycle ``f + 2``;
* unlimited renaming, oracle memory disambiguation and a perfect data
  cache, so only true register and memory dependences order issue: an
  instruction is ready in ``max(f + 2, completion cycle of each
  producer)``;
* an instruction issued in cycle ``i`` completes in cycle ``i + its
  latency``, and its result is usable by an instruction issuing in
  that same cycle;
* issue picks the oldest-ready instructions first: by ready cycle, then
  by program order.

Each cycle does, in order: complete, retire (in order, completed
instructions only), issue, fetch.  Every stage scans the whole window:
O(window) per cycle, fine for the small cells the differential runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ideal.models import DEFAULT_LATENCIES, LATENCY_CLASS
from repro.ideal.tracegen import AnnotatedTrace

WIDTH = 16
FRONTEND_STAGES = 2


@dataclass
class ReferenceResult:
    cycles: int
    retired: int


def simulate_oracle(trace: AnnotatedTrace, window_size: int) -> ReferenceResult:
    """Replay ``trace`` on the perfect-prediction machine above."""
    n = len(trace)
    latency = [DEFAULT_LATENCIES[LATENCY_CLASS[e.instr.op]] for e in trace.entries]
    producers = [
        [p for p in (trace.dep1[s], trace.dep2[s], trace.depm[s]) if p >= 0]
        for s in range(n)
    ]
    fetched_at: list[int | None] = [None] * n
    issued_at: list[int | None] = [None] * n
    completed_at: list[int | None] = [None] * n
    window: list[int] = []  # in-flight seqs, oldest first
    next_fetch = retired = cycle = 0
    while retired < n:
        for s in window:
            if (
                completed_at[s] is None
                and issued_at[s] is not None
                and issued_at[s] + latency[s] == cycle
            ):
                completed_at[s] = cycle

        count = 0
        while window and count < WIDTH and completed_at[window[0]] is not None:
            window.pop(0)
            retired += 1
            count += 1

        ready = []
        for s in window:
            if issued_at[s] is not None:
                continue
            at = fetched_at[s] + FRONTEND_STAGES
            if all(completed_at[p] is not None for p in producers[s]):
                at = max([at, *(completed_at[p] for p in producers[s])])
                if at <= cycle:
                    ready.append((at, s))
        for _, s in sorted(ready)[:WIDTH]:
            issued_at[s] = cycle

        count = 0
        while count < WIDTH and next_fetch < n and len(window) < window_size:
            window.append(next_fetch)
            fetched_at[next_fetch] = cycle
            next_fetch += 1
            count += 1

        cycle += 1
    return ReferenceResult(cycles=cycle, retired=retired)
