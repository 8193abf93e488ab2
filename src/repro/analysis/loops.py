"""Natural loops, the loop nesting forest, and preheaders.

The preheader-insertion placement schemes (LI and LLS, section 3.3 of
the paper) hoist checks "in an inner loop to outer loop manner", which
needs the loop forest and a guaranteed preheader block per loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import IRError
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Jump, Phi
from .dominance import DominatorTree


class Loop:
    """One natural loop: header, member blocks, and nesting links."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        """Nesting depth (outermost loop has depth 1)."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def exit_edges(self) -> List[tuple]:
        """Edges ``(inside_block, outside_block)`` leaving the loop."""
        edges = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def __repr__(self) -> str:
        return "Loop(header=%s, %d blocks)" % (self.header.name,
                                               len(self.blocks))


class LoopForest:
    """All natural loops of a function, organized into a nesting forest."""

    def __init__(self, function: Function,
                 domtree: Optional[DominatorTree] = None) -> None:
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self.loops: List[Loop] = []
        self.by_header: Dict[BasicBlock, Loop] = {}
        self._innermost: Dict[BasicBlock, Optional[Loop]] = {}
        self._find_loops()
        self._build_forest()

    # -- construction ----------------------------------------------------

    def _find_loops(self) -> None:
        preds = self.function.predecessor_map()
        for block in self.domtree.rpo:
            for succ in block.successors():
                if self.domtree.dominates(succ, block):
                    loop = self.by_header.get(succ)
                    if loop is None:
                        loop = Loop(succ)
                        self.by_header[succ] = loop
                        self.loops.append(loop)
                    loop.latches.append(block)
                    self._collect_body(loop, block, preds)

    def _collect_body(self, loop: Loop, latch: BasicBlock, preds) -> None:
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            stack.extend(preds[block])

    def _build_forest(self) -> None:
        # Sort by size so each loop's parent is the smallest strictly
        # enclosing loop.
        ordered = sorted(self.loops, key=lambda lp: len(lp.blocks))
        for i, loop in enumerate(ordered):
            for outer in ordered[i + 1:]:
                if loop.header in outer.blocks and outer is not loop:
                    loop.parent = outer
                    outer.children.append(loop)
                    break
        self._innermost = {}
        for block in self.domtree.rpo:
            best: Optional[Loop] = None
            for loop in self.loops:
                if block in loop.blocks:
                    if best is None or len(loop.blocks) < len(best.blocks):
                        best = loop
            self._innermost[block] = best

    # -- queries ---------------------------------------------------------

    def innermost(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, or None."""
        return self._innermost.get(block)

    def top_level(self) -> List[Loop]:
        """Loops with no parent."""
        return [loop for loop in self.loops if loop.parent is None]

    def inner_to_outer(self) -> List[Loop]:
        """All loops, innermost first (children before parents)."""
        order: List[Loop] = []

        def visit(loop: Loop) -> None:
            for child in loop.children:
                visit(child)
            order.append(loop)

        for loop in self.top_level():
            visit(loop)
        return order

    def loop_of_var_header(self, block: BasicBlock) -> Optional[Loop]:
        """The loop whose header is ``block``, if any."""
        return self.by_header.get(block)

    # -- preheaders ---------------------------------------------------------

    def preheader(self, loop: Loop) -> Optional[BasicBlock]:
        """The existing preheader: the unique outside predecessor of the
        header whose only successor is the header."""
        preds = self.function.predecessors(loop.header)
        outside = [p for p in preds if p not in loop.blocks]
        if len(outside) == 1 and len(outside[0].successors()) == 1:
            return outside[0]
        return None

    def get_or_create_preheader(self, loop: Loop) -> BasicBlock:
        """Return the loop preheader, creating one when necessary.

        Creation retargets all outside edges into a fresh block and
        migrates header phi entries (merging them into new phis when
        there is more than one outside predecessor).
        """
        existing = self.preheader(loop)
        if existing is not None:
            return existing
        function = self.function
        preds = function.predecessors(loop.header)
        outside = [p for p in preds if p not in loop.blocks]
        if not outside:
            raise IRError("loop at %s has no entry edge" % loop.header.name)
        pre = function.new_block("preheader")
        pre.append(Jump(loop.header))
        for pred in outside:
            term = pred.terminator
            if term is None:
                raise IRError("unterminated predecessor %s" % pred.name)
            _retarget_terminator(term, loop.header, pre)
        for phi in loop.header.phis():
            outside_entries = [(blk, val) for blk, val in phi.incoming
                               if blk in outside]
            inside_entries = [(blk, val) for blk, val in phi.incoming
                              if blk not in outside]
            if len(outside_entries) <= 1:
                new_entries = [(pre, outside_entries[0][1])] \
                    if outside_entries else []
                phi.incoming = new_entries + inside_entries
            else:
                merged = Phi(phi.dest.with_name(phi.dest.name + ".pre"),
                             outside_entries)
                pre.insert(0, merged)
                function.declare_scalar(merged.dest)
                phi.incoming = [(pre, merged.dest)] + inside_entries
        # keep every enclosing loop's membership consistent
        node = loop.parent
        while node is not None:
            node.blocks.add(pre)
            node = node.parent
        self._innermost[pre] = loop.parent
        return pre


def _retarget_terminator(term, old: BasicBlock, new: BasicBlock) -> None:
    if isinstance(term, Jump):
        if term.target is old:
            term.target = new
            return
        raise IRError("jump does not target %s" % old.name)
    if getattr(term, "if_true", None) is old:
        term.if_true = new
    if getattr(term, "if_false", None) is old:
        term.if_false = new
