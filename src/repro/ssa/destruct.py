"""SSA destruction: replace phis with copies in predecessor blocks.

Critical edges are split first, then every phi of a block is lowered to
a *parallel copy* at the end of each predecessor.  The parallel copy is
implemented with intermediate temporaries (read all sources into fresh
temps, then write all destinations), which is immune to the classic
lost-copy and swap problems.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Assign
from ..ir.values import Value, Var
from ..ir.verify import verify_function


def split_critical_edges(function: Function) -> int:
    """Split every edge whose source has multiple successors and whose
    target has multiple predecessors.  Returns the number split.

    The landing blocks exist only to host phi copies, so their jump is
    marked synthetic: the execution engines charge it to the ``phis``
    counter, keeping dynamic instruction counts identical to the SSA
    module being destructed.
    """
    preds = function.predecessor_map()
    split = 0
    for block in list(function.blocks):
        if len(preds.get(block, [])) < 2:
            continue
        # once per predecessor: splitting moves both arms of a CondJump
        # that names ``block`` twice
        for pred in dict.fromkeys(preds[block]):
            if len(pred.successors()) > 1:
                middle = function.split_edge(pred, block)
                middle.terminator.is_synthetic = True
                split += 1
    return split


def destruct_ssa(function: Function) -> None:
    """Lower all phis to copies, in place."""
    split_critical_edges(function)
    counter = [0]

    def fresh(var: Var) -> Var:
        counter[0] += 1
        temp = Var("pc%d" % counter[0], var.type, is_temp=True)
        function.declare_scalar(temp)
        return temp

    for block in list(function.blocks):
        phis = block.phis()
        if not phis:
            continue
        by_pred: Dict[BasicBlock, List[Tuple[Var, Value]]] = {}
        for phi in phis:
            for pred, value in phi.incoming:
                by_pred.setdefault(pred, []).append((phi.dest, value))
        for pred, moves in by_pred.items():
            temps: List[Tuple[Var, Value]] = []
            for dest, value in moves:
                temp = fresh(dest)
                pred.insert_before_terminator(
                    Assign(temp, value, is_phi_copy=True))
                temps.append((dest, temp))
            for dest, temp in temps:
                pred.insert_before_terminator(
                    Assign(dest, temp, is_phi_copy=True))
        for phi in phis:
            block.remove(phi)
    function.ssa_form = False
    verify_function(function)


def is_ssa(function: Function) -> bool:
    """True when every variable has at most one definition."""
    seen = set()
    for inst in function.instructions():
        dest = inst.def_var()
        if dest is not None:
            if dest.name in seen:
                return False
            seen.add(dest.name)
    return True
