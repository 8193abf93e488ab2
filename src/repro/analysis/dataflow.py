"""The block order the project's dataflow passes iterate in.

There is no generic solver here.  The check availability and
anticipatability systems (:mod:`repro.checks.dataflow`, section 3.2),
value ranges, induction variables and affine forms each run their own
iteration over their own lattice; the dominator and postdominator
trees share one solver (:mod:`repro.analysis.dominance`).  What they
all share is :func:`depth_first_order`: visiting blocks entry first
lets forward problems converge in a handful of passes on reducible
CFGs, and its reverse serves backward ones.  A function's reverse
postorder lives in its CFG snapshot
(:class:`~repro.ir.function.CFGSnapshot`), next to the predecessor
lists, so each CFG version is walked once.
"""

from __future__ import annotations

from typing import (Callable, Hashable, Iterable, Iterator, List, Tuple,
                    TypeVar)

from ..ir.basicblock import BasicBlock
from ..ir.function import Function

Node = TypeVar("Node", bound=Hashable)


def depth_first_order(root: Node,
                      successors: Callable[[Node], Iterable[Node]]
                      ) -> List[Node]:
    """Reverse postorder of the nodes reachable from ``root`` (root
    first).  The search is iterative, so a long CFG needs no deep
    recursion."""
    order: List[Node] = []
    seen = {root}
    stack: List[Tuple[Node, Iterator[Node]]] = [
        (root, iter(successors(root)))]
    while stack:
        node, pending = stack[-1]
        for succ in pending:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(successors(succ))))
                break
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Reverse postorder over reachable blocks (entry first), computed
    once per CFG version and kept in the function's CFG snapshot: the
    list is shared by every reader, so read-only."""
    snapshot = function.cfg()
    if snapshot.rpo is None:
        snapshot.rpo = [] if function.entry is None else \
            depth_first_order(function.entry, BasicBlock.successors)
    return snapshot.rpo
