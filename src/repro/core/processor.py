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

This module is the *facade*: it owns the machine state, the one cycle
loop (:meth:`Processor.run`) and the diagnostics surface, while the
rest of the pipeline lives in the stage mixins of
:mod:`repro.core.stages` (sequencer, backend, recovery, retire).
``Processor``'s public API is construction, ``run``,
``add_cycle_hook`` and ``snapshot``.

Host time goes to work done once per *fetched* instruction, and under
restart and redispatch most fetched instructions never retire.  So each
per-instruction path is one loop over locals, with no Python call per
instruction on its common path:

* ``run`` issues inline, and completes and broadcasts in one loop that
  also retries gated branches; a wakeup goes through ``_wake`` only
  when something patched it on the instance (the fault injectors);
* ``SequencerStage._fetch`` claims, links, keys, renames and predicts
  for the frontier and for every restart context;
* ``RecoveryStage._squash_after`` squashes a whole range, backward, for
  every squash caller;
* ``RecoveryStage._redispatch_walk`` remaps each CI instruction inline.

Recovery decisions (``_recover``, ``_repredict``/``_overturn``, the
context stack), retirement and the per-cycle hooks stay methods.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..bpred import FrontEnd
from ..cfg import ReconvergenceTable
from ..errors import MachineSnapshot, SimulationHang
from ..isa import CONTROL_KERNELS, NUM_REGS, VALUE_KERNELS, Program, effective_addr
from ..memsys import SetAssociativeCache
from ..ideal.models import LATENCY_TABLE, WIDTH
from .config import CoreConfig, ReconvPolicy
from .golden import GoldenTrace
from .lsq import LoadStoreQueue
from .regfile import PhysReg
from .rob import ReorderBuffer
from .soa import (
    REF_MASK,
    CompletionWheel,
    ST_COMPLETED,
    ST_DEAD,
    ST_FETCHED_MP,
    ST_INFLIGHT,
    ST_IN_READY,
    ST_ISSUED_MP,
    ST_RECOVERING,
    ST_REISSUED_MP,
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
        #: ready heap of int tuples (eligible, order, ref); the packed ref
        #: self-validates a popped entry against slot recycling
        self._ready: list[tuple[int, int, int]] = []
        #: gated branches: packed refs and their issue tokens, in two
        #: parallel lists like a completion-wheel slot
        self._pending_refs: list[int] = []
        self._pending_tokens: list[int] = []
        #: pool handles of every in-window incomplete branch and indirect
        #: jump (values unused; a dict iterates in insertion order)
        self._incomplete_branches: dict[int, None] = {}

        # Completion events live in a preallocated ring sized past the
        # largest possible completion latency (op latency, or a load
        # miss plus the 1-cycle address cycle); the issue loop files
        # completions on it directly.
        self._completing = CompletionWheel(
            max(max(LATENCY_TABLE), 1 + self.cache.miss_latency)
        )
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

        # Per-cycle recovery flag for the cycle-accounting layer (set by
        # ``_recover``, counted and cleared by the cycle loop).
        self._any_recovered = False

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
    # the cycle loop

    def run(self) -> CoreStats:
        """Run to completion and return the sealed statistics.

        The one cycle driver.  Each cycle, in order: check the cycle
        budget, complete and broadcast the instructions due on the
        completion wheel (then retry gated branches), retire, check the
        watchdog's forward progress, issue, run the sequencer (fetch or
        redispatch), and call the cycle hooks.  The ready heap, the
        completion wheel and the pool columns the issue and completion
        loops touch are locals here; the recovery decisions, retirement
        and the sequencer stay stage methods, called once per cycle or
        per event.
        """
        max_cycles = self.config.max_cycles
        watchdog = self.config.watchdog_cycles
        last_retired = self.retired_count
        last_progress = self.cycle
        stats = self.stats
        hooks = self._cycle_hooks
        retire = self._retire_phase
        sequence = self._sequencer_phase
        recover = self._recover
        gates_open = self._branch_gates_open
        would_be_false = self._would_be_false_misprediction
        store_executed = self._store_executed
        lsq = self.lsq
        forward_source = lsq.forward_source
        store_resolved = lsq.store_resolved
        committed_mem = self.committed_mem
        cache_access = self.cache.access
        incomplete = self._incomplete_branches
        hfm = self.config.hide_false_mispredictions
        ready = self._ready
        wheel = self._completing
        wheel_mask = wheel._mask
        wheel_nodes = wheel._nodes
        wheel_tokens = wheel._tokens
        pool = self.pool
        state = pool.state
        refs = pool.ref
        orders = pool.order
        issue_count = pool.issue_count
        dispatch_cycle = pool.dispatch_cycle
        instrs = pool.instr
        src1_tag = pool.src1_tag
        src2_tag = pool.src2_tag
        dest_tag = pool.dest_tag
        values = pool.value
        addrs = pool.addr
        pcs = pool.pc
        current_next_pc = pool.current_next_pc
        outcome_next_pc = pool.outcome_next_pc
        fwd_store = pool.fwd_store
        store_value = pool.store_value
        lat = LATENCY_TABLE
        cycle = self.cycle
        while not self.halted:
            if cycle > max_cycles:
                raise SimulationHang(
                    f"exceeded the {max_cycles}-cycle budget",
                    snapshot=self.snapshot(),
                    kind="cycle-limit",
                )

            # -- complete and broadcast ----------------------------------
            # One loop serves the events due this cycle and then, when
            # any branch is pending, one retry sweep of the pending
            # lists; a branch whose gate is still closed re-appends in
            # the same order.
            due = batch = wheel_nodes[cycle & wheel_mask]
            tokens = wheel_tokens[cycle & wheel_mask]
            completed_any = False
            patched_wake = self.__dict__.get("_wake")
            while True:
                for ref, token in zip(batch, tokens):
                    h = ref & REF_MASK
                    if refs[h] != ref or state[h] & ST_DEAD or token != issue_count[h]:
                        continue
                    s = state[h] & ~ST_INFLIGHT
                    instr = instrs[h]
                    mismatch = False
                    if instr.is_branch or instr.is_indirect:
                        # Appendix A.2: a gated branch waits in the
                        # pending lists; so does a would-be false
                        # misprediction under the oracle.
                        state[h] = s
                        mismatch = outcome_next_pc[h] != current_next_pc[h]
                        if not gates_open(h) or (
                            mismatch and hfm and would_be_false(h)
                        ):
                            self._pending_refs.append(ref)
                            self._pending_tokens.append(token)
                            continue
                        state[h] = s | ST_COMPLETED
                        incomplete.pop(h, None)
                        if self._oldest_gate == h:
                            self._oldest_gate_valid = False
                    else:
                        state[h] = s | ST_COMPLETED
                        if instr.is_store:
                            completed_any = True
                            store_resolved(h)
                            store_executed(h)
                            continue
                        if instr.is_load:
                            source = forward_source(h)
                            if source is not None:
                                values[h] = store_value[source]
                                fwd_store[h] = refs[source]
                            else:
                                values[h] = committed_mem.get(addrs[h], 0)
                                fwd_store[h] = None
                    completed_any = True
                    # Broadcast the (possibly new) value; consumers whose
                    # inputs changed reissue (selective reissue).
                    tag = dest_tag[h]
                    if tag is not None:
                        value = values[h]
                        if not tag.ready or tag.value != value:
                            tag.value = value
                            tag.ready = True
                            consumers = tag.consumers
                            dead = 0
                            if patched_wake is not None:
                                for cref in consumers:
                                    ch = cref & REF_MASK
                                    if refs[ch] == cref and not state[ch] & ST_DEAD:
                                        if cref != ref:
                                            patched_wake(ch, cycle)
                                    else:
                                        dead += 1
                            else:
                                # ``_wake`` inlined: waking only pushes
                                # onto the ready heap, never touches the
                                # consumer list being iterated.
                                for cref in consumers:
                                    ch = cref & REF_MASK
                                    cs = state[ch]
                                    if refs[ch] != cref or cs & ST_DEAD:
                                        dead += 1
                                        continue
                                    if cref == ref or cs & ST_IN_READY:
                                        continue
                                    if issue_count[ch] == 0:
                                        t1 = src1_tag[ch]
                                        t2 = src2_tag[ch]
                                        if (t1 is not None and not t1.ready) or (
                                            t2 is not None and not t2.ready
                                        ):
                                            continue
                                    eligible = dispatch_cycle[ch] + 2
                                    if eligible < cycle:
                                        eligible = cycle
                                    state[ch] = cs | ST_IN_READY
                                    heappush(ready, (eligible, orders[ch], cref))
                            if dead > 8 and dead * 2 > len(consumers):
                                tag.consumers = [
                                    r
                                    for r in consumers
                                    if refs[r & REF_MASK] == r
                                    and not state[r & REF_MASK] & ST_DEAD
                                ]
                    if mismatch:
                        recover(h)
                if batch is not due:
                    break
                due.clear()
                tokens.clear()
                if not self._pending_refs:
                    break
                batch = self._pending_refs
                tokens = self._pending_tokens
                self._pending_refs = []
                self._pending_tokens = []
            if completed_any:
                stats.stage_complete_cycles += 1
            if self._any_recovered:
                stats.stage_recover_cycles += 1
                self._any_recovered = False

            # -- retire ----------------------------------------------------
            retire()
            # Forward-progress watchdog: a window that stops retiring
            # long before max_cycles is a livelock (lost wakeup, stuck
            # recovery), not a slow program — fail fast with the state.
            if self.retired_count != last_retired:
                last_retired = self.retired_count
                last_progress = cycle
            elif cycle - last_progress >= watchdog:
                raise SimulationHang(
                    f"no instruction retired in {watchdog} cycles "
                    "(forward-progress watchdog)",
                    snapshot=self.snapshot(),
                    kind="livelock",
                )
            if self.halted:
                break

            # -- issue and execute ----------------------------------------
            if ready and ready[0][0] <= cycle:
                budget = WIDTH
                issued = 0
                while ready and budget > 0:
                    eligible, _, ref = ready[0]
                    if eligible > cycle:
                        break
                    heappop(ready)
                    h = ref & REF_MASK
                    if refs[h] != ref:
                        # Slot recycled since the push: the entry belongs
                        # to a dead instruction; the current occupant's
                        # own in-ready flag must not be touched.
                        continue
                    s = state[h] & ~ST_IN_READY
                    if s & ST_DEAD:
                        state[h] = s
                        continue
                    budget -= 1
                    issued += 1
                    token = issue_count[h] + 1
                    issue_count[h] = token
                    if s & ST_FETCHED_MP and s & ST_ISSUED_MP:
                        s |= ST_REISSUED_MP
                    state[h] = s | ST_INFLIGHT
                    instr = instrs[h]
                    t1 = src1_tag[h]
                    t2 = src2_tag[h]
                    a = t1.value if t1 is not None else 0
                    b = t2.value if t2 is not None else 0
                    # Straight to the per-opcode kernels (the single
                    # definition of instruction semantics,
                    # repro.isa.instructions), which allocate no result.
                    opcode = instr.opcode
                    if instr.is_mem:
                        addr = effective_addr(instr, a)
                        if instr.is_load:
                            addrs[h] = addr
                            latency = 1 + cache_access(addr)
                        else:
                            pool.prev_addr[h] = addrs[h]
                            addrs[h] = addr
                            store_value[h] = b
                            latency = lat[opcode]
                    elif instr.is_control:
                        taken, next_pc, value = CONTROL_KERNELS[opcode](
                            instr, pcs[h], a, b
                        )
                        pool.outcome_taken[h] = taken
                        outcome_next_pc[h] = next_pc
                        values[h] = value  # call link address
                        latency = lat[opcode]
                    else:
                        values[h] = VALUE_KERNELS[opcode](instr, a, b)
                        latency = lat[opcode]
                    # File the completion on the wheel: its horizon covers
                    # LATENCY_TABLE and the cache's miss latency, so no
                    # latency wraps onto a slot holding another cycle.
                    slot = (cycle + latency) & wheel_mask
                    wheel_nodes[slot].append(ref)
                    wheel_tokens[slot].append(token)
                if issued:
                    stats.issues_total += issued
                    stats.stage_issue_cycles += 1

            # -- sequencer: fetch, restart or redispatch -------------------
            fetched_before = stats.fetched
            sequence()
            if stats.fetched != fetched_before:
                stats.stage_dispatch_cycles += 1
            for hook in hooks:
                hook(self)
            cycle += 1
            self.cycle = cycle
        stats.cycles = cycle + 1
        return stats


def simulate_core(
    program: Program,
    config: CoreConfig | None = None,
    golden: GoldenTrace | None = None,
    reconv_table: ReconvergenceTable | None = None,
) -> CoreStats:
    """Run one program through one detailed-machine configuration."""
    return Processor(program, config, golden, reconv_table).run()
