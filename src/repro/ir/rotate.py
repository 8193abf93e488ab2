"""Loop rotation: convert top-test loops into guarded bottom-test loops.

The paper (section 3.3): "even when the check to be hoisted out of a
loop is not conditional ... the control flow structure of while loops
prevents the check from being anticipatable at the loop preheader.
(A CFG transformation such as loop rotation can help the safe-earliest
placement in such cases by converting while loops into repeat loops.)"

Rotation duplicates the header's (pure) test computation at the latch:

    before:  pre -> H(test) -> B ... L -> H;  H -> E
    after:   pre -> H(test) -> B ... L(test') -> B;  H -> E, L -> E

``H`` remains as the zero-trip guard outside the loop, and the loop
proper becomes ``B ... L`` with the body entry as its header.  Checks
inside ``B`` become anticipatable on the guard's taken edge, which is
outside the loop, so safe-earliest placement can hoist them.

The pass runs on non-SSA IR (the duplicated test reassigns the same
temporaries), before SSA construction in the pipeline.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.loops import Loop, LoopForest
from .function import Function, Module
from .instructions import (Assign, BinOp, CondJump, Jump, UnOp,
                           clone_instruction)

_DUPLICABLE = (Assign, BinOp, UnOp)


def rotate_loops(function: Function) -> int:
    """Rotate every eligible top-test loop; returns the number rotated."""
    rotated = 0
    # recompute the forest after each rotation: block membership changes
    while True:
        forest = LoopForest(function)
        candidate = _find_candidate(forest)
        if candidate is None:
            return rotated
        _rotate(function, candidate)
        rotated += 1


def rotate_module(module: Module) -> int:
    """Rotate loops in every function of a module."""
    return sum(rotate_loops(function) for function in module)


def _find_candidate(forest: LoopForest) -> Optional[Loop]:
    for loop in forest.inner_to_outer():
        if _eligible(loop):
            return loop
    return None


def _eligible(loop: Loop) -> bool:
    header = loop.header
    term = header.terminator
    if not isinstance(term, CondJump):
        return False
    if len(loop.latches) != 1:
        return False
    latch = loop.latches[0]
    if latch is header:
        return False  # already a self-loop (bottom-test)
    if not isinstance(latch.terminator, Jump):
        return False
    in_targets = [s for s in term.successors() if s in loop.blocks]
    out_targets = [s for s in term.successors() if s not in loop.blocks]
    if len(in_targets) != 1 or len(out_targets) != 1:
        return False
    if header.phis():
        return False  # non-SSA pass: refuse post-SSA input
    # every non-terminator header instruction must be duplicable
    return all(isinstance(inst, _DUPLICABLE)
               for inst in header.instructions[:-1])


def _rotate(function: Function, loop: Loop) -> None:
    header = loop.header
    latch = loop.latches[0]
    term = header.terminator
    assert isinstance(term, CondJump)
    body_entry = next(s for s in term.successors() if s in loop.blocks)
    exit_block = next(s for s in term.successors() if s not in loop.blocks)

    # replace the latch's jump-to-header with a duplicated test
    latch.remove(latch.terminator)
    for inst in header.instructions[:-1]:
        latch.append(clone_instruction(inst))
    if term.if_true is body_entry:
        latch.append(CondJump(term.cond, body_entry, exit_block))
    else:
        latch.append(CondJump(term.cond, exit_block, body_entry))
