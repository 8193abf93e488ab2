"""Basic blocks and their instruction lists."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from ..errors import IRError
from .instructions import Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    Phi instructions, when present, must form a prefix of the block.
    Successor edges are derived from the terminator; predecessor lists
    come from the function's CFG snapshot
    (:meth:`~repro.ir.function.Function.cfg`), which adding or removing
    a terminator here drops.
    """

    __slots__ = ("name", "function", "instructions")

    def __init__(self, name: str, function: Optional["Function"] = None) -> None:
        self.name = name
        self.function = function
        self.instructions: List[Instruction] = []

    # -- pickling -----------------------------------------------------

    def __getstate__(self):
        # The function pickles every block's instructions after its
        # block list (see Function.__getstate__), so pickling never
        # recurses along CFG edges, however long the CFG.
        return self.name, self.function

    def __setstate__(self, state) -> None:
        self.name, self.function = state
        if not hasattr(self, "instructions"):
            # unset unless this block was pickled on its own: then its
            # function's state, loaded inside this one, attached them
            self.instructions = []

    # -- structure ----------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        """The trailing terminator, or None for an unfinished block."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        """Successor blocks per the terminator (empty if unterminated)."""
        term = self.terminator
        return term.successors() if term is not None else []

    # -- mutation -----------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Append an instruction; refuses to add past a terminator."""
        if self.terminator is not None:
            raise IRError("block %s already terminated" % self.name)
        inst.block = self
        self.instructions.append(inst)
        self._edited(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        """Insert an instruction at ``index``."""
        inst.block = self
        self.instructions.insert(index, inst)
        self._edited(inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert just before the terminator (or append when there is none)."""
        if self.terminator is None:
            return self.append(inst)
        return self.insert(len(self.instructions) - 1, inst)

    def insert_after_phis(self, inst: Instruction) -> Instruction:
        """Insert right after the phi prefix."""
        return self.insert(self.first_non_phi_index(), inst)

    def remove(self, inst: Instruction) -> None:
        """Remove an instruction from this block."""
        self.instructions.remove(inst)
        inst.block = None
        self._edited(inst)

    def _edited(self, inst: Instruction) -> None:
        # a terminator carries the block's out-edges
        if inst.is_terminator and self.function is not None:
            self.function.cfg_changed()

    # -- queries ------------------------------------------------------

    def phis(self) -> List[Phi]:
        """The phi prefix of the block."""
        result: List[Phi] = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        """Index of the first non-phi instruction."""
        for idx, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return idx
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return "BasicBlock(%r, %d insts)" % (self.name, len(self.instructions))
