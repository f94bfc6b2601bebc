"""Detailed execution-driven simulator of a control-independence
superscalar processor (paper Sections 3-4 and Appendix).

The machine is a 16-wide, 5-stage out-of-order processor with a
linked-window (optionally segmented) reorder buffer over a columnar
instruction pool (:class:`repro.core.soa.InstrPool`), unlimited physical
registers, an aggressive load/store queue, and a gshare/CTB/RAS front
end.  Control independence is exploited exactly as the paper describes:

* a misprediction looks up the reconvergent point (software
  post-dominators or the hardware heuristics of Appendix A.5) and, if it
  is in the window, selectively squashes the incorrect control-dependent
  instructions (*restart sequence*), fetching the correct path into the
  gap;
* a *redispatch sequence* then walks the control-independent region at
  dispatch bandwidth, remapping source registers (destinations keep
  their tags), re-predicting branches against the repaired global
  history, and reissuing instructions whose inputs changed;
* instructions stay in their issue slots until retirement and reissue
  autonomously whenever a source tag broadcasts a changed value
  (selective reissue), including loads squashed by stores.

Execution is value-based: wrong paths compute real (wrong) values, so
false mispredictions (Appendix A.2) arise naturally.  Retirement
co-simulates against the golden architectural trace — any divergence is
a simulator bug, not a statistic.

This module is the *facade*: it owns the machine state, the cycle loop
and the diagnostics surface, while the pipeline itself lives in the
stage mixins of :mod:`repro.core.stages` (sequencer, backend, recovery,
retire).  ``Processor``'s public API — construction, ``run``,
``add_cycle_hook``, ``snapshot`` — is unchanged by the split, and so is
every statistic.
"""

from __future__ import annotations

from ..bpred import FrontEnd
from ..cfg import ReconvergenceTable
from ..errors import MachineSnapshot, SimulationHang
from ..isa import NUM_REGS, Program
from ..memsys import SetAssociativeCache
from ..ideal.models import LATENCY_TABLE
from .config import CoreConfig, ReconvPolicy
from .golden import GoldenTrace
from .lsq import LoadStoreQueue
from .regfile import PhysReg
from .rob import ReorderBuffer
from .soa import (
    CompletionWheel,
    ST_COMPLETED,
    ST_INFLIGHT,
    ST_IN_READY,
    ST_RECOVERING,
)
from .stats import CoreStats
from .stages import (
    BackendStage,
    RecoveryStage,
    RetireStage,
    SequencerStage,
    _Context,
)


class Processor(SequencerStage, BackendStage, RecoveryStage, RetireStage):
    """One configured machine, runnable over one program.

    The pipeline stages are mixins over this facade's shared state; see
    :mod:`repro.core.stages` for the per-stage module map.
    """

    def __init__(
        self,
        program: Program,
        config: CoreConfig | None = None,
        golden: GoldenTrace | None = None,
        reconv_table: ReconvergenceTable | None = None,
        tfr_collectors: tuple = (),
    ):
        self.program = program
        self._code = program.instructions
        self._code_len = len(program.instructions)
        self.config = config if config is not None else CoreConfig()
        cfg = self.config.validate()
        self.golden = golden if golden is not None else GoldenTrace(program)
        self.reconv_table = None
        if cfg.reconv_policy is ReconvPolicy.POSTDOM:
            self.reconv_table = (
                reconv_table if reconv_table is not None else ReconvergenceTable(program)
            )
        self.tfr_collectors = tfr_collectors

        self.frontend = FrontEnd()
        self.rob = ReorderBuffer(cfg.window_size, cfg.segment_size)
        #: the columnar instruction store backing every in-window
        #: instruction; stage mixins address instructions as pool handles
        self.pool = self.rob.pool
        self.lsq = LoadStoreQueue(self.pool)
        self.cache = SetAssociativeCache()
        self.committed_mem: dict[int, int] = dict(program.data)
        self.stats = CoreStats()

        # Architectural registers start ready with value zero.
        arch_map: list[PhysReg] = []
        for _ in range(NUM_REGS):
            reg = PhysReg()
            reg.ready = True
            arch_map.append(reg)
        #: mapping as of the last retired instruction (commit-side map)
        self.retired_map: list[PhysReg] = list(arch_map)
        self.frontier = _Context(program.entry, 0, list(arch_map))
        self.contexts: list[_Context] = []  # restart stack; top is last

        self.cycle = 0
        self.uid_counter = 0
        self.retired_count = 0
        self.retire_ghr = 0
        self.halted = False

        self._last_active: _Context | None = None
        self._needs_remap = False
        #: ready heap of pure int tuples (eligible, order, uid, handle);
        #: the uid self-validates popped entries against slot recycling
        self._ready: list[tuple[int, int, int, int]] = []
        #: gated branches as (packed ref, issue token) pairs
        self._pending_branches: list[tuple[int, int]] = []
        #: uid -> pool handle of every in-window incomplete branch
        self._incomplete_branches: dict[int, int] = {}

        # Completion events live in a preallocated ring sized past the
        # largest possible completion latency (op latency, or a load
        # miss plus the 1-cycle address cycle).
        self._completing = CompletionWheel(
            max(max(LATENCY_TABLE), 1 + self.cache.miss_latency)
        )
        # Aliases for the issue phase, which files completions on the
        # wheel directly (its horizon covers every latency above).
        self._wheel_mask = self._completing._mask
        self._wheel_nodes = self._completing._nodes
        self._wheel_tokens = self._completing._tokens
        # The completion-model gates resolved to plain booleans.
        self._gate_in_order = cfg.completion_model.branches_in_order
        self._gate_stores = cfg.completion_model.requires_resolved_stores

        # Event-maintained gating state: the oldest alive incomplete
        # branch (in-order completion models consult it per completing
        # branch instead of rescanning every incomplete branch).  The
        # cache is repaired on dispatch and invalidated when its slot
        # completes or is squashed; ``None`` while valid means "no
        # incomplete branch in the window".
        self._oldest_gate: int | None = None
        self._oldest_gate_valid = True

        # Pending-branch retries: a gated branch can only complete after
        # an event that opens a gate — the oldest-gate cache invalidated
        # (its branch completed or was squashed; counted here) or the
        # LSQ's unresolved-store subset shrinking (counted by the LSQ).
        # The completion phase sweeps the pending list only when the
        # counters its gates consult moved since the last sweep; a
        # skipped sweep would only have retried branches whose gates
        # were all still closed.  The false-misprediction oracle's delay
        # depends on repredicts and window positions, which are not gate
        # events, so under it every cycle sweeps.
        self._oldest_gate_events = 0
        self._swept_events = 0
        self._sweep_always = cfg.hide_false_mispredictions

        # Rename-map memoization: _map_after results are valid until the
        # window contents (or the commit-side map) change; the epoch
        # stamps both.  Nested recoveries and the sequencer reactivation
        # repeatedly rebuild the same anchor's map within one cycle.
        self._map_epoch = 0
        self._map_cache: dict[int, list] = {}
        self._map_cache_epoch = -1

        # Per-cycle stage-activity flags for the cycle-accounting layer.
        self._any_completed = False
        self._any_recovered = False

        # Cycle-loop state latched by run(); declared here so the
        # facade's attribute surface is complete after construction (the
        # sourcelint undeclared-attr rule audits exactly this).
        self._max_cycles = self.config.max_cycles
        self._watchdog = self.config.watchdog_cycles
        self._last_retired = 0
        self._last_progress_cycle = 0

        # Hardware reconvergence heuristics (Appendix A.5).
        self._return_targets: set[int] = set()
        self._loop_targets: set[int] = set()

        #: robustness hooks invoked once per cycle with the processor;
        #: used by the fault-injection layer to corrupt state mid-run
        self._cycle_hooks: list = []
        if cfg.sanitize_enabled():
            # Local import: repro.analysis is a consumer of repro.core
            # everywhere else; only the opt-in sanitizer flows back in.
            from ..analysis import MachineSanitizer

            # First hook on purpose: fault injectors register afterwards,
            # so a corruption landing at the end of cycle N is reported
            # at the end of cycle N+1 (with sanitize_stride=1).
            self.add_cycle_hook(MachineSanitizer(stride=cfg.sanitize_stride))

    # ==================================================================
    # helpers

    def add_cycle_hook(self, hook) -> None:
        """Register ``hook(processor)`` to run at the end of every cycle."""
        self._cycle_hooks.append(hook)

    def snapshot(self) -> MachineSnapshot:
        """Capture machine state for failure diagnostics."""
        head = self.rob.head
        if head is None:
            head_pc, head_status, head_age = None, "empty", None
        else:
            pool = self.pool
            head_age = self.cycle - pool.dispatch_cycle[head]
            s = pool.state[head]
            flags = []
            flags.append("completed" if s & ST_COMPLETED else "incomplete")
            if s & ST_IN_READY:
                flags.append("in-ready")
            if s & ST_INFLIGHT:
                flags.append("inflight")
            if s & ST_RECOVERING:
                flags.append("recovering")
            head_pc, head_status = pool.pc[head], " ".join(flags)
        last_retired_pc = (
            self.golden.entries[self.retired_count - 1].pc
            if 0 < self.retired_count <= len(self.golden.entries)
            else None
        )
        return MachineSnapshot(
            cycle=self.cycle,
            fetch_pc=self.frontier.fetch_pc,
            rob_occupancy=self.rob.slots_used,
            window_size=self.rob.window_size,
            active_contexts=len(self.contexts),
            context_phases=tuple(c.phase for c in self.contexts),
            retired=self.retired_count,
            golden_length=len(self.golden),
            head_pc=head_pc,
            head_status=head_status,
            incomplete_branches=len(self._incomplete_branches),
            last_retired_pc=last_retired_pc,
            oldest_rob_age=head_age,
        )

    def _active_context(self) -> _Context:
        if not self.contexts:
            return self.frontier
        # The oldest outstanding recovery blocks retirement: service it
        # first (optimal preemption resumes suspended sequences in order).
        orders = self.pool.order
        return min(self.contexts, key=lambda c: orders[c.branch])

    def _golden_index(self, h: int) -> int:
        """Approximate golden-trace index of an in-window instruction.

        Counts alive instructions from the window head (the paper's own
        instance-matching approach, with the same instance-mismatch
        caveats it describes in Appendix A.3.1).  ``ReorderBuffer.index_of``
        recounts the position from the links, walking from whichever
        window end is nearer."""
        return self.retired_count + self.rob.index_of(h)

    def _golden_entry_for(self, h: int):
        entry = self.golden.entry(self._golden_index(h))
        if entry is not None and entry.pc == self.pool.pc[h]:
            return entry
        return None

    # ==================================================================
    # the cycle loop: explicit stage wiring
    #
    # ``run()`` latches the budget/watchdog state, calls ``step()`` until
    # the machine halts and seals the statistics; ``step()`` advances
    # exactly one cycle.

    def step(self) -> bool:
        """Advance one cycle; False once the machine has halted."""
        if self.halted:
            return False
        if self.cycle > self._max_cycles:
            raise SimulationHang(
                f"exceeded the {self._max_cycles}-cycle budget",
                snapshot=self.snapshot(),
                kind="cycle-limit",
            )
        self._complete_phase()
        self._retire_phase()
        # Forward-progress watchdog: a window that stops retiring long
        # before max_cycles is a livelock (lost wakeup, stuck recovery),
        # not a slow program — fail fast with the machine state.
        if self.retired_count != self._last_retired:
            self._last_retired = self.retired_count
            self._last_progress_cycle = self.cycle
        elif self.cycle - self._last_progress_cycle >= self._watchdog:
            raise SimulationHang(
                f"no instruction retired in {self._watchdog} cycles "
                "(forward-progress watchdog)",
                snapshot=self.snapshot(),
                kind="livelock",
            )
        if self.halted:
            return False
        self._issue_phase()
        fetched_before = self.stats.fetched
        self._sequencer_phase()
        if self.stats.fetched != fetched_before:
            self.stats.stage_dispatch_cycles += 1
        for hook in self._cycle_hooks:
            hook(self)
        self.cycle += 1
        return True

    def run(self) -> CoreStats:
        """Run to completion and return the sealed statistics."""
        self._max_cycles = self.config.max_cycles
        self._watchdog = self.config.watchdog_cycles
        self._last_retired = self.retired_count
        self._last_progress_cycle = self.cycle
        while self.step():
            pass
        self.stats.cycles = self.cycle + 1
        return self.stats


def simulate_core(
    program: Program,
    config: CoreConfig | None = None,
    golden: GoldenTrace | None = None,
    reconv_table: ReconvergenceTable | None = None,
) -> CoreStats:
    """Run one program through one detailed-machine configuration."""
    return Processor(program, config, golden, reconv_table).run()
