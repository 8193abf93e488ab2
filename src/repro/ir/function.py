"""Functions (programs/subroutines) and modules of the repro IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from ..errors import IRError
from .basicblock import BasicBlock
from .instructions import Instruction, Jump
from .types import ArrayType, ScalarType
from .values import Var


class Function:
    """One program unit: a main program or a subroutine.

    Scalar parameters are passed by value; array parameters are passed
    by reference (the interpreter binds the caller's array object to the
    parameter name).  Every scalar variable used in the body is recorded
    in ``scalar_types`` so SSA construction and the interpreter know the
    full variable set.
    """

    def __init__(self, name: str, is_main: bool = False) -> None:
        self.name = name
        self.is_main = is_main
        self.params: List[Var] = []
        self.array_params: List[str] = []
        # defaults for main-program input scalars (driver-overridable)
        self.input_defaults: Dict[str, Union[int, float]] = {}
        self.arrays: Dict[str, ArrayType] = {}
        self.scalar_types: Dict[str, ScalarType] = {}
        self.blocks: List[BasicBlock] = []
        self.entry: Optional[BasicBlock] = None
        # set by SSA construction, cleared by destruction; gates the
        # verifier's def-dominates-use check (pre-SSA IR legally reads
        # variables before any definition)
        self.ssa_form = False
        self._name_counter = 0

    # -- pickling -------------------------------------------------------

    def __getstate__(self):
        # Blocks pickle as (name, function), and the instruction lists
        # follow the whole block list: every block is memoized before
        # an instruction names it, so the pickle's depth does not grow
        # with the CFG.  The verifier keeps every block an instruction
        # names in ``blocks``.
        state = self.__dict__.copy()
        state["_instructions"] = [block.instructions for block in self.blocks]
        return state

    def __setstate__(self, state) -> None:
        instructions = state.pop("_instructions")
        self.__dict__.update(state)
        for block, insts in zip(self.blocks, instructions):
            block.instructions = insts

    # -- construction -------------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create, register, and return a fresh basic block."""
        name = "%s%d" % (hint, self._name_counter)
        self._name_counter += 1
        block = BasicBlock(name, self)
        self.blocks.append(block)
        if self.entry is None:
            self.entry = block
        return block

    def add_param(self, var: Var) -> None:
        """Register a scalar parameter."""
        self.params.append(var)
        self.scalar_types[var.name] = var.type

    def add_array(self, name: str, type_: ArrayType,
                  is_param: bool = False) -> None:
        """Register a local or parameter array."""
        if name in self.arrays:
            raise IRError("array %r declared twice in %s" % (name, self.name))
        self.arrays[name] = type_
        if is_param:
            self.array_params.append(name)

    def declare_scalar(self, var: Var) -> None:
        """Record a scalar variable's type."""
        existing = self.scalar_types.get(var.name)
        if existing is not None and existing != var.type:
            raise IRError("scalar %r redeclared with a different type"
                          % var.name)
        self.scalar_types[var.name] = var.type

    # -- CFG queries ---------------------------------------------------

    def predecessor_map(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Predecessor lists for every block (freshly computed)."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        """Predecessors of one block, in :meth:`predecessor_map` order."""
        return [pred for pred in self.blocks
                for succ in pred.successors() if succ is block]

    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in depth-first order."""
        if self.entry is None:
            return []
        seen = {self.entry}
        order = [self.entry]
        stack = [self.entry]
        while stack:
            block = stack.pop()
            for succ in block.successors():
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
                    stack.append(succ)
        return order

    def instructions(self) -> Iterator[Instruction]:
        """Iterate every instruction in every block."""
        for block in self.blocks:
            yield from block.instructions

    def remove_unreachable_blocks(self) -> List[BasicBlock]:
        """Drop unreachable blocks; returns the removed blocks."""
        reachable = set(self.reachable_blocks())
        removed = [b for b in self.blocks if b not in reachable]
        if removed:
            self.blocks = [b for b in self.blocks if b in reachable]
            removed_set = set(removed)
            for block in self.blocks:
                for phi in block.phis():
                    phi.incoming = [(blk, val) for blk, val in phi.incoming
                                    if blk not in removed_set]
        return removed

    def split_edge(self, pred: BasicBlock, succ: BasicBlock) -> BasicBlock:
        """Insert a new block on the edge ``pred -> succ``.

        Used by the check optimizer to place insertions on critical
        edges.  Phi nodes in ``succ`` are retargeted to the new block.
        """
        term = pred.terminator
        if term is None:
            raise IRError("cannot split edge from unterminated block %s"
                          % pred.name)
        middle = self.new_block("edge")
        middle.append(Jump(succ))
        retargeted = False
        for succ_block in list(term.successors()):
            if succ_block is succ:
                _retarget(term, succ, middle)
                retargeted = True
                break
        if not retargeted:
            raise IRError("no edge %s -> %s to split" % (pred.name, succ.name))
        for phi in succ.phis():
            for idx, (blk, value) in enumerate(phi.incoming):
                if blk is pred:
                    phi.incoming[idx] = (middle, value)
                    break
        return middle

    def __repr__(self) -> str:
        return "Function(%r, %d blocks)" % (self.name, len(self.blocks))


def _retarget(term: Instruction, old: BasicBlock, new: BasicBlock) -> None:
    if isinstance(term, Jump):
        if term.target is old:
            term.target = new
    else:
        if getattr(term, "if_true", None) is old:
            term.if_true = new
        elif getattr(term, "if_false", None) is old:
            term.if_false = new
        else:
            raise IRError("terminator does not target block %s" % old.name)


class Module:
    """A compilation unit: one main program plus its subroutines."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.main: Optional[Function] = None

    def add(self, function: Function) -> Function:
        """Register a function; the first ``is_main`` one becomes main."""
        if function.name in self.functions:
            raise IRError("function %r defined twice" % function.name)
        self.functions[function.name] = function
        if function.is_main:
            if self.main is not None:
                raise IRError("module has two main programs")
            self.main = function
        return function

    def lookup(self, name: str) -> Function:
        """Find a function by name."""
        try:
            return self.functions[name]
        except KeyError:
            raise IRError("unknown function %r" % name) from None

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:
        return "Module(%r, %d functions)" % (self.name, len(self.functions))
