"""The block order the project's dataflow passes iterate in.

There is no generic solver here.  The check availability and
anticipatability systems (:mod:`repro.checks.dataflow`, section 3.2),
value ranges, induction variables, postdominators and affine forms each
run their own iteration over their own lattice.  What they share is
:func:`reverse_postorder`: visiting blocks entry first lets forward
problems converge in a handful of passes on reducible CFGs, and its
reverse serves backward ones.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Reverse postorder over reachable blocks (entry first)."""
    order: List[BasicBlock] = []
    seen = set()

    def visit(block: BasicBlock) -> None:
        # iterative DFS with an explicit stack to avoid recursion limits
        stack: List[Tuple[BasicBlock, Iterable[BasicBlock]]] = [
            (block, iter(block.successors()))]
        seen.add(block)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    if function.entry is not None:
        visit(function.entry)
    order.reverse()
    return order
