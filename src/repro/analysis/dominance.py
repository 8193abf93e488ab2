"""Dominator and postdominator trees, and dominance frontiers.

Both trees come from one Cooper-Harvey-Kennedy iterative solver over
reverse postorder, which is simple and fast for the CFG sizes the
benchmark suite produces and needs memory linear in the block count.
The dominator tree runs it from the entry, once per CFG version: its
facts live in the function's CFG snapshot
(:class:`~repro.ir.function.CFGSnapshot`), with each block's entry
and exit numbers from a depth-first walk of the tree, so "does a
dominate b" is two comparisons.  The postdominator tree runs it on the
reversed CFG from a virtual exit that every block without successors
flows into, and answers by walking b's chain of immediate
postdominators.

Dominance frontiers feed SSA construction (Cytron's algorithm), the
only reader, so they are computed on first read; loop forests, MCM and
the verifier pay for immediate dominators only.  Postdominators serve
MCM, whose candidate checks sit in articulation nodes of the loop body
(they dominate the latch and postdominate the body entry), and the
specialized back-end, which closes each ``if`` at its block's
immediate postdominator.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .dataflow import depth_first_order, reverse_postorder


def _immediate_dominators(rpo: Sequence[Hashable],
                         preds: Mapping[Hashable, Sequence[Hashable]]
                         ) -> Dict[Hashable, Optional[Hashable]]:
    """Each node's immediate dominator (None for the root).

    ``rpo`` is the reverse postorder of the nodes reachable from the
    root, which comes first; ``preds`` maps each of them to its
    predecessors, of which unreached ones are ignored.
    """
    if not rpo:
        return {}
    root = rpo[0]
    index = {node: i for i, node in enumerate(rpo)}
    idom: Dict[Hashable, Optional[Hashable]] = dict.fromkeys(rpo)
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node is root:
                continue
            new_idom = None
            for pred in preds[node]:
                if idom.get(pred) is None:
                    continue  # unreached, or not processed yet
                if new_idom is None:
                    new_idom = pred
                    continue
                # intersect: climb both fingers to their common ancestor
                a, b = pred, new_idom
                while a is not b:
                    while index[a] > index[b]:
                        a = idom[a]
                    while index[b] > index[a]:
                        b = idom[b]
                new_idom = a
            if idom[node] is not new_idom:
                idom[node] = new_idom
                changed = True
    idom[root] = None
    return idom


def _on_idom_chain(idom: Mapping, a: BasicBlock, b: BasicBlock) -> bool:
    """True when ``a`` is ``b`` or one of its ancestors in ``idom``."""
    node: Optional[BasicBlock] = b
    while node is not None:
        if node is a:
            return True
        node = idom.get(node)
    return False


class Dominance:
    """The dominator facts of one CFG version: immediate dominators,
    the tree's children in reverse postorder, and each reachable
    block's entry and exit numbers in a depth-first walk of the tree.
    ``a`` dominates ``b`` when ``b``'s numbers nest inside ``a``'s; a
    block off the tree dominates, and is dominated by, only itself.
    """

    __slots__ = ("idom", "children", "_enter", "_exit")

    def __init__(self, rpo: Sequence[BasicBlock],
                 preds: Mapping[BasicBlock, Sequence[BasicBlock]]) -> None:
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = \
            _immediate_dominators(rpo, preds)
        self.children: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in rpo}
        for block in rpo:
            parent = self.idom[block]
            if parent is not None:
                self.children[parent].append(block)
        self._enter: Dict[BasicBlock, int] = {}
        self._exit: Dict[BasicBlock, int] = {}
        if not rpo:
            return
        # iterative, so a long CFG's deep tree needs no deep recursion
        clock = 0
        self._enter[rpo[0]] = clock
        stack = [(rpo[0], iter(self.children[rpo[0]]))]
        while stack:
            node, pending = stack[-1]
            child = next(pending, None)
            clock += 1
            if child is None:
                self._exit[node] = clock
                stack.pop()
            else:
                self._enter[child] = clock
                stack.append((child, iter(self.children[child])))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexively)."""
        if a is b:
            return True
        enter_a = self._enter.get(a)
        enter_b = self._enter.get(b)
        return enter_a is not None and enter_b is not None \
            and enter_a < enter_b and self._exit[b] < self._exit[a]


def dominance_of(function: Function) -> Dominance:
    """The dominator facts of ``function``'s current CFG, solved once
    per CFG version and kept in its snapshot (read-only)."""
    snapshot = function.cfg()
    if snapshot.dominance is None:
        snapshot.dominance = Dominance(reverse_postorder(function),
                                       snapshot.preds)
    return snapshot.dominance


class DominatorTree:
    """Immediate dominators, the dominator tree, and dominance frontiers.

    The tree is a view of one CFG snapshot: RPO, predecessors and the
    dominator facts (:func:`dominance_of`) are those of the CFG when
    it is built, and :attr:`frontier`, computed on first read, comes
    from that snapshot, so a late read gives what an eager one would.
    ``idom`` and ``children`` are shared with the snapshot: read-only.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.rpo = reverse_postorder(function)
        self._preds = function.predecessor_map()
        self._dominance = dominance_of(function)
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = \
            self._dominance.idom
        self.children: Dict[BasicBlock, List[BasicBlock]] = \
            self._dominance.children
        self._frontier: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None

    @property
    def frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Each block's dominance frontier, computed on first read."""
        if self._frontier is None:
            self._frontier = self._compute_frontiers()
        return self._frontier

    def _compute_frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            block: set() for block in self.rpo}
        for block in self.rpo:
            block_preds = [p for p in self._preds[block] if p in self.idom]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner is not self.idom[block]:
                    frontier[runner].add(block)
                    next_runner = self.idom.get(runner)
                    if next_runner is None:
                        break
                    runner = next_runner
        return frontier

    # -- queries ------------------------------------------------------------

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexively)."""
        return self._dominance.dominates(a, b)

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` and ``a is not b``."""
        return a is not b and self._dominance.dominates(a, b)


class PostDominators:
    """Immediate postdominators: the dominator solver run on the
    reversed CFG from a virtual exit.

    ``ipdom`` maps each block that reaches an exit to its immediate
    postdominator, or to None when that is the virtual exit (the block
    returns, or its paths leave through different exits).  A block
    from which no exit is reachable has no entry, so it is
    postdominated only by itself.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        preds = function.predecessor_map()
        exits = [block for block in function.blocks
                 if not block.successors()]
        virtual_exit = object()
        rpo = depth_first_order(
            virtual_exit,
            lambda node: exits if node is virtual_exit else preds[node])
        # a block's predecessors in the reversed CFG are its successors
        reversed_preds = {block: block.successors() or [virtual_exit]
                          for block in rpo[1:]}
        idom = _immediate_dominators(rpo, reversed_preds)
        del idom[virtual_exit]
        self.ipdom: Dict[BasicBlock, Optional[BasicBlock]] = {
            block: None if parent is virtual_exit else parent
            for block, parent in idom.items()}

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when every path from ``b`` to function exit passes
        through ``a`` (reflexive)."""
        return _on_idom_chain(self.ipdom, a, b)
