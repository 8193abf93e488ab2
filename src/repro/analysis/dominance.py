"""Dominator tree and dominance frontiers.

Uses the Cooper-Harvey-Kennedy iterative algorithm over reverse
postorder, which is simple and fast for the CFG sizes the benchmark
suite produces.  Dominance frontiers feed SSA construction (Cytron's
algorithm), the only reader, so they are computed on first read; loop
forests, MCM and the verifier pay for immediate dominators only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .dataflow import reverse_postorder


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
        self._index = {block: i for i, block in enumerate(self.rpo)}
        self._preds = function.predecessor_map()
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._frontier: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
        self._compute_idoms()
        self._compute_children()

    @property
    def frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Each block's dominance frontier, computed on first read."""
        if self._frontier is None:
            self._frontier = self._compute_frontiers()
        return self._frontier

    # -- construction ------------------------------------------------------

    def _compute_idoms(self) -> None:
        entry = self.function.entry
        if entry is None:
            return
        preds = self._preds
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {
            block: None for block in self.rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                candidates = [p for p in preds[block]
                              if p in self._index and idom[p] is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = self._intersect(idom, pred, new_idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        idom[entry] = None  # the entry has no immediate dominator
        self.idom = idom

    def _intersect(self, idom: Dict[BasicBlock, Optional[BasicBlock]],
                   a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._index[a] > self._index[b]:
                a = idom[a] if idom[a] is not None else self.function.entry
            while self._index[b] > self._index[a]:
                b = idom[b] if idom[b] is not None else self.function.entry
        return a

    def _compute_children(self) -> None:
        self.children = {block: [] for block in self.rpo}
        for block in self.rpo:
            parent = self.idom.get(block)
            if parent is not None:
                self.children[parent].append(block)

    def _compute_frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            block: set() for block in self.rpo}
        for block in self.rpo:
            block_preds = [p for p in self._preds[block] if p in self._index]
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
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` and ``a is not b``."""
        return a is not b and self.dominates(a, b)
