"""The Markstein-Cocke-Markstein baseline (MCM, SIGPLAN 1982).

The paper's related-work section describes the first range-check
motion algorithm as "a restricted form of preheader check insertion;
the only checks that it considers for preheader insertion are the
checks present in articulation nodes in the loop body (because these
nodes post-dominate the loop entry nodes and dominate the loop exit
nodes) and which have simple range expressions" -- and proposes
implementing it for comparison with loop-limit substitution.  This
module is that comparison.

Restrictions relative to LLS:

* **articulation nodes only**: a check participates only if its block
  dominates the loop latch and postdominates the loop-body entry
  (no dataflow-based anticipatability);
* **simple range expressions only**: the canonical range-expression is
  a single symbol with coefficient +-1 -- the loop's basic induction
  variable (hoisted via limit substitution) or a loop-invariant scalar;
* **no cascading**: each loop is processed independently; hoisted
  Cond-checks are not re-hoisted out of enclosing loops.
"""

from __future__ import annotations

from typing import List, Set

from ..analysis.dominance import PostDominators
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Check
from .canonical import CanonicalCheck
from .preheader import NEVER_RUNS, PreheaderInserter


class MarksteinInserter(PreheaderInserter):
    """Preheader insertion under the MCM restrictions."""

    def run(self, substitute_linear: bool = True) -> int:
        postdom = PostDominators(self.function)
        for loop in self.forest.inner_to_outer():
            body_entry = self._body_entry(loop)
            if body_entry is None:
                continue
            guard = self.limits.guard(loop, self.ivs.get(loop),
                                      self._while_guard)
            if guard is NEVER_RUNS:
                continue
            preheader = self.forest.get_or_create_preheader(loop)
            candidates = self._articulation_checks(
                loop, body_entry, postdom)
            for canonical in candidates:
                self._try_hoist(loop, body_entry, preheader, guard,
                                canonical, [], substitute_linear)
        return self.inserted

    # -- candidate selection -------------------------------------------------

    def _articulation_checks(self, loop, body_entry: BasicBlock,
                             postdom: PostDominators
                             ) -> List[CanonicalCheck]:
        domtree = self.forest.domtree
        latch = loop.latches[0] if len(loop.latches) == 1 else None
        if latch is None:
            return []
        found: List[CanonicalCheck] = []
        seen: Set[CanonicalCheck] = set()
        # function order, not the identity-hashed ``loop.blocks`` set:
        # hoist order must not follow heap addresses
        for block in self.function.blocks:
            if block not in loop.blocks or block is loop.header:
                continue
            if not domtree.dominates(block, latch):
                continue
            if not postdom.postdominates(block, body_entry):
                continue
            for inst in block.instructions:
                if not isinstance(inst, Check) or inst.is_conditional:
                    continue
                canonical = CanonicalCheck.of(inst)
                if canonical.is_compile_time():
                    continue
                if not self._is_simple(canonical, loop):
                    continue
                if canonical not in seen:
                    seen.add(canonical)
                    found.append(canonical)
        return found

    def _is_simple(self, canonical: CanonicalCheck, loop) -> bool:
        symbols = canonical.linexpr.symbols()
        if len(symbols) != 1:
            return False
        symbol = symbols[0]
        if abs(canonical.linexpr.coefficient(symbol)) != 1:
            return False
        iv = self.ivs.get(loop)
        if iv is not None and symbol == iv.var.name:
            return True  # the loop's own index variable
        return not self.limits.defined_inside(symbol, loop)  # invariant scalar
