"""Dominator and postdominator trees, and dominance frontiers.

Both trees come from one Cooper-Harvey-Kennedy iterative solver over
reverse postorder, which is simple and fast for the CFG sizes the
benchmark suite produces and needs memory linear in the block count.
The dominator tree runs it from the entry, the postdominator tree on
the reversed CFG from a virtual exit that every block without
successors flows into; both answer "does a dominate b" by walking b's
chain of immediate dominators.

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


class DominatorTree:
    """Immediate dominators, the dominator tree, and dominance frontiers.

    The tree is a snapshot: RPO, predecessors and immediate dominators
    are taken when it is built, and :attr:`frontier`, computed on first
    read, comes from that snapshot, so a late read gives what an eager
    one would.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.rpo = reverse_postorder(function)
        self._preds = function.predecessor_map()
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = \
            _immediate_dominators(self.rpo, self._preds)
        self.children: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.rpo}
        for block in self.rpo:
            parent = self.idom[block]
            if parent is not None:
                self.children[parent].append(block)
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
        return _on_idom_chain(self.idom, a, b)

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` and ``a is not b``."""
        return a is not b and _on_idom_chain(self.idom, a, b)


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
