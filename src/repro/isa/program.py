"""Program container: a resolved sequence of instructions plus metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instruction, Op


@dataclass
class Program:
    """A fully resolved program.

    Instructions are addressed by index (the PC).  ``labels`` maps label
    names to PCs; ``data`` holds the initial contents of data memory
    (word address -> value).  ``entry`` is the initial PC.
    """

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int] = field(default_factory=dict)
    entry: int = 0
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def fetch(self, pc: int) -> Instruction | None:
        """Return the instruction at ``pc`` or None if out of range.

        Wrong-path fetch can run off the end of the program; callers
        treat None as an implicit HALT.
        """
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None

    def validate(self) -> None:
        """Raise ValueError if any control target is out of range."""
        n = len(self.instructions)
        for pc, instr in enumerate(self.instructions):
            if instr.is_control and not instr.is_indirect:
                if not 0 <= instr.target < n:
                    raise ValueError(
                        f"pc {pc}: {instr.op.name} target {instr.target} outside [0,{n})"
                    )
        if not 0 <= self.entry < n:
            raise ValueError(f"entry point {self.entry} outside program")
        if not any(i.op is Op.HALT for i in self.instructions):
            raise ValueError("program has no HALT instruction")
