"""Control-flow graph construction over :class:`~repro.isa.Program`.

Calls are treated as fall-through edges (a call returns to ``pc + 1``),
so post-dominance is computed per calling context without inlining the
callee — the same convention compilers use when annotating branches with
immediate post-dominators (paper Section 3.2.1).  Returns (``jr ra``)
and HALT terminate a block with an edge to the virtual exit.

Indirect jumps that are not returns have statically unknown successors;
their blocks also edge to the virtual exit, which conservatively gives
the enclosing branches no reconvergent point through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import Instruction, Op, Program

#: Virtual exit node id used by the dominator analysis.
EXIT_BLOCK = -1


@dataclass
class BasicBlock:
    """Half-open PC range [start, end) of straight-line instructions."""

    index: int
    start: int
    end: int
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    @property
    def last_pc(self) -> int:
        return self.end - 1

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


class ControlFlowGraph:
    """Basic blocks + edges for one program."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: list[BasicBlock] = []
        self._block_of_pc: list[int] = []
        self._build()

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self._block_of_pc[pc]]

    def _leaders(self) -> list[int]:
        program = self.program
        n = len(program)
        leaders = {0, program.entry}
        for pc, instr in enumerate(program.instructions):
            if instr.is_control or instr.op is Op.HALT:
                if pc + 1 < n:
                    leaders.add(pc + 1)
                if instr.is_control and not instr.is_indirect:
                    leaders.add(instr.target)
        return sorted(leaders)

    def _successor_pcs(self, instr: Instruction, pc: int) -> list[int]:
        n = len(self.program)
        if instr.op is Op.HALT:
            return []
        if instr.is_branch:
            out = [instr.target]
            if pc + 1 < n:
                out.append(pc + 1)
            return out
        if instr.op is Op.JUMP:
            return [instr.target]
        if instr.is_call:
            # Fall-through edge: analysis assumes the callee returns.
            return [pc + 1] if pc + 1 < n else []
        if instr.is_indirect:
            return []  # return / unknown indirect target -> virtual exit
        return [pc + 1] if pc + 1 < n else []

    def _build(self) -> None:
        program = self.program
        n = len(program)
        leaders = self._leaders()
        starts = leaders + [n]
        self.blocks = [
            BasicBlock(index=i, start=starts[i], end=starts[i + 1])
            for i in range(len(leaders))
        ]
        self._block_of_pc = [0] * n
        for block in self.blocks:
            for pc in range(block.start, block.end):
                self._block_of_pc[pc] = block.index
        for block in self.blocks:
            last = program[block.last_pc]
            for succ_pc in self._successor_pcs(last, block.last_pc):
                succ = self._block_of_pc[succ_pc]
                block.successors.append(succ)
                self.blocks[succ].predecessors.append(block.index)

    def exit_blocks(self) -> list[int]:
        """Blocks with no successors (returns, halts, indirect jumps)."""
        return [b.index for b in self.blocks if not b.successors]

    def analysis_roots(self) -> list[int]:
        """Entry points for whole-program analyses: the program entry
        block plus every direct call target.

        Calls are modeled as fall-through edges (see module docstring),
        so callee bodies have no CFG predecessors; any reachability or
        dataflow analysis must treat them as additional roots or every
        function body would look unreachable.
        """
        roots = {self.block_at(self.program.entry).index}
        for instr in self.program.instructions:
            if instr.is_call:
                roots.add(self.block_at(instr.target).index)
        return sorted(roots)

    def reachable_blocks(self) -> set[int]:
        """Block indices reachable from any analysis root."""
        seen: set[int] = set()
        stack = self.analysis_roots()
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            stack.extend(self.blocks[index].successors)
        return seen
