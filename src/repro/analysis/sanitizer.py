"""Machine-invariant sanitizer for the detailed core (``REPRO_SANITIZE=1``).

The detailed simulator maintains several redundant views of the same
machine state: the ROB's doubly-linked list and its order keys and
count, the fetch-frontier rename map and the commit-side map overlaid
with the window's destination tags, the LSQ's store set and its
unresolved subset, the incomplete-branch index and its oldest-gate
cache.  A bug (or an injected fault) that breaks one view surfaces
cycles later as a statistic drift or an unrelated cosimulation mismatch
— expensive to trace back.  The sanitizer cross-checks the views every
``stride`` cycles and raises a structured
:class:`~repro.errors.SanitizerError` *naming the corrupted structure*
at (close to) the moment of corruption.

Checked invariants, by ``SanitizerError.structure``:

* ``rob-links`` — the linked window walks head→tail consistently
  (``prev``/``next`` columns agree), every linked slot is alive in the
  pool's state column, orders strictly increase, and the walk length
  matches ``rob.count``.  That is everything ``rob.index_of`` (the
  golden-trace instance matching) reads: it recounts a position from
  the links and ``count``, so there is no separate position index to
  audit.
* ``rename-map`` — with no recovery contexts active, the frontier map
  must equal the commit-side map overlaid with the window's destination
  tags, register by register.
* ``broadcast-network`` — every alive slot's destination tag is owned
  by that slot (``tag.producer`` equals the slot's packed pool ref) and
  no two alive slots share a tag: a violated single-writer rule
  silently crosses dependences.
* ``commit-order`` — retirement only moves forward: ``retired_count``
  never decreases, never exceeds the golden trace, and agrees with the
  retirement statistics.
* ``lsq`` — the LSQ tracks exactly the window's live memory
  instructions; the unresolved-store set is a subset of the stores and
  contains every incomplete store (the branch-completion gate scans
  only this subset, so a dropped entry breaks memory ordering quietly).
  The tables are keyed by pool handle: each store key names a store and
  each load key a load.
* ``branch-gates`` — the incomplete-branch index holds exactly the
  window's branches and indirect jumps that have not completed, and a
  valid oldest-gate cache names the oldest of them (the in-order
  completion models gate on it).  The index is keyed by pool handle, so
  a missed removal would alias the slot's next tenant.

With ``REPRO_SANITIZE=1`` in the environment, ``Processor.__init__``
attaches one sanitizer at stride 64 as the *first* cycle hook.  A test
that localizes a planted fault adds ``MachineSanitizer(stride=1)``
itself, before its fault hook: a fault landing at the end of cycle N is
then caught by the check at the end of cycle N+1.
"""

from __future__ import annotations

from ..core.soa import HEAD, TAIL, ST_COMPLETED, ST_DEAD, ST_RETIRED
from ..errors import SanitizerError

#: structures checked, in check order (stable for tests/docs)
STRUCTURES = (
    "rob-links",
    "broadcast-network",
    "rename-map",
    "commit-order",
    "lsq",
    "branch-gates",
)


class MachineSanitizer:
    """Per-cycle cross-check of the processor's redundant state views.

    Instances are callables compatible with
    ``Processor.add_cycle_hook``; construction is cheap and the stride
    keeps steady-state overhead proportional to ``window / stride``.
    """

    def __init__(self, stride: int = 1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride!r}")
        self.stride = stride
        self.checks_run = 0
        self._last_retired = 0

    def __call__(self, proc) -> None:
        if proc.cycle % self.stride:
            return
        self.check(proc)

    # ------------------------------------------------------------------

    def check(self, proc) -> None:
        """Run every invariant check once; raises on the first failure."""
        self.checks_run += 1
        linked = self._check_rob_links(proc)
        # Broadcast before rename-map: a shared tag corrupts both views,
        # and the single-writer rule is the more precise localization.
        self._check_broadcast(proc, linked)
        self._check_rename_map(proc, linked)
        self._check_commit_order(proc)
        self._check_lsq(proc, linked)
        self._check_branch_gates(proc, linked)

    def _fail(self, proc, structure: str, message: str) -> None:
        raise SanitizerError(
            f"cycle {proc.cycle}: {message}", structure, proc.snapshot()
        )

    # ------------------------------------------------------------------

    def _check_rob_links(self, proc) -> list:
        rob = proc.rob
        pool = proc.pool
        prev_col = pool.prev
        next_col = pool.next
        order_col = pool.order
        state = pool.state
        linked: list = []
        node = next_col[HEAD]
        prev = HEAD
        limit = rob.count + 2  # a cycle in the links must not hang us
        while node != TAIL:
            if len(linked) >= limit:
                self._fail(
                    proc, "rob-links",
                    f"linked window walk exceeds count={rob.count}: "
                    "cycle or stale link in the window",
                )
            if prev_col[node] != prev:
                self._fail(
                    proc, "rob-links",
                    f"slot {pool.describe(node)}.prev does not point at "
                    "its predecessor",
                )
            if state[node] & ST_DEAD:
                dead = "retired" if state[node] & ST_RETIRED else "squashed"
                self._fail(
                    proc, "rob-links",
                    f"{dead} slot {pool.describe(node)} is still linked "
                    "in the window",
                )
            if order_col[node] <= order_col[prev]:
                self._fail(
                    proc, "rob-links",
                    f"order keys not strictly increasing at "
                    f"{pool.describe(node)}: "
                    f"{order_col[prev]} -> {order_col[node]}",
                )
            linked.append(node)
            prev = node
            node = next_col[node]
        if prev_col[TAIL] != prev:
            self._fail(
                proc, "rob-links", "tail boundary's prev does not close the window"
            )
        if len(linked) != rob.count:
            self._fail(
                proc, "rob-links",
                f"linked window holds {len(linked)} slots but count={rob.count}",
            )
        return linked

    def _check_rename_map(self, proc, linked: list) -> None:
        if proc.contexts:
            return  # recovery in flight: the frontier map is transient
        pool = proc.pool
        dest_arch = pool.dest_arch
        dest_tag = pool.dest_tag
        overlay = list(proc.retired_map)
        for h in linked:
            if dest_arch[h] is not None:
                overlay[dest_arch[h]] = dest_tag[h]
        frontier = proc.frontier.rmap
        for arch, expected in enumerate(overlay):
            if frontier[arch] is not expected:
                self._fail(
                    proc, "rename-map",
                    f"frontier map for r{arch} does not match the "
                    "commit-side map overlaid with the window's "
                    "destination tags",
                )

    def _check_broadcast(self, proc, linked: list) -> None:
        pool = proc.pool
        dest_tag = pool.dest_tag
        ref_col = pool.ref
        owners: dict[int, int] = {}
        for h in linked:
            tag = dest_tag[h]
            if tag is None:
                continue
            other = owners.get(id(tag))
            if other is not None:
                self._fail(
                    proc, "broadcast-network",
                    f"alive slots {pool.describe(other)} and "
                    f"{pool.describe(h)} share one destination tag "
                    "(single-writer rule violated)",
                )
            owners[id(tag)] = h
            if tag.producer != ref_col[h]:
                self._fail(
                    proc, "broadcast-network",
                    f"destination tag of {pool.describe(h)} is owned by "
                    f"ref {tag.producer!r}",
                )

    def _check_commit_order(self, proc) -> None:
        retired = proc.retired_count
        if retired < self._last_retired:
            self._fail(
                proc, "commit-order",
                f"retired_count moved backwards: "
                f"{self._last_retired} -> {retired}",
            )
        if retired > len(proc.golden):
            self._fail(
                proc, "commit-order",
                f"retired_count {retired} exceeds the golden trace "
                f"({len(proc.golden)} entries)",
            )
        if proc.stats.retired != retired:
            self._fail(
                proc, "commit-order",
                f"stats.retired ({proc.stats.retired}) disagrees with "
                f"retired_count ({retired})",
            )
        self._last_retired = retired

    def _check_lsq(self, proc, linked: list) -> None:
        lsq = proc.lsq
        pool = proc.pool
        window = set(linked)
        for kind, table in (("store", lsq._stores), ("load", lsq._loads)):
            for h in table:
                if h not in window:
                    self._fail(
                        proc, "lsq",
                        f"{kind} {pool.describe(h)} is tracked by the LSQ "
                        "but no longer linked in the window",
                    )
                if not getattr(pool.instr[h], "is_" + kind):
                    self._fail(
                        proc, "lsq",
                        f"{kind} table key {pool.describe(h)} is not a {kind}",
                    )
        for h in lsq._unresolved_stores:
            if h not in lsq._stores:
                self._fail(
                    proc, "lsq",
                    f"unresolved store {pool.describe(h)} is not in the "
                    "store table (unresolved set must be a subset)",
                )
        for h in lsq._stores:
            if not pool.state[h] & ST_COMPLETED and h not in lsq._unresolved_stores:
                self._fail(
                    proc, "lsq",
                    f"incomplete store {pool.describe(h)} is missing from "
                    "the unresolved-store subset (memory ordering gate "
                    "would ignore it)",
                )

    def _check_branch_gates(self, proc, linked: list) -> None:
        pool = proc.pool
        state = pool.state
        instr_col = pool.instr
        # ``linked`` runs oldest first, so ``expected`` does too.
        expected = [
            h
            for h in linked
            if (instr_col[h].is_branch or instr_col[h].is_indirect)
            and not state[h] & ST_COMPLETED
        ]
        index = proc._incomplete_branches
        for h in expected:
            if h not in index:
                self._fail(
                    proc, "branch-gates",
                    f"incomplete branch {pool.describe(h)} is missing from "
                    "the incomplete-branch index",
                )
        if len(index) != len(expected):
            members = set(expected)
            extra = next(h for h in index if h not in members)
            self._fail(
                proc, "branch-gates",
                f"incomplete-branch index holds {pool.describe(extra)}, "
                "which is not an incomplete branch in the window",
            )
        if not proc._oldest_gate_valid:
            return
        oldest = expected[0] if expected else None
        if proc._oldest_gate != oldest:
            cached = proc._oldest_gate
            self._fail(
                proc, "branch-gates",
                "oldest-gate cache names "
                f"{'none' if cached is None else pool.describe(cached)} but "
                f"the oldest incomplete branch is "
                f"{'none' if oldest is None else pool.describe(oldest)}",
            )
