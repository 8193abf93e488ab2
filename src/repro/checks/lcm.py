"""PRE-based check placement: safe-earliest (SE) and latest (LNI).

Applies the Knoop-Ruthing-Steffen lazy-code-motion machinery (the
paper's reference [12]) to the check universe:

* ``EARLIEST(i,j) = ANTIN(j) & ~AVOUT(i) & (~ANTOUT(i) | ~TRANSP(i))``
  places checks as early as safety allows -- preferred for checks
  because performing a check defines no variable, so there is no
  register pressure, and an early check maximizes downstream
  redundancy (section 3.3);
* the ``LATER`` system postpones insertions as far as possible, giving
  the latest placement (the paper's latest-not-isolated, LNI).  Like
  every lazy-code-motion placement it is computationally optimal: on
  every path it executes no more checks than any other down-safe
  placement, which is why ``Scheme.LO`` (:mod:`repro.checks.lospre`)
  prices only it against inserting nothing.

Insertions happen on edges; the edge is realized as the end of the
predecessor (single successor), the start of the successor (single
predecessor), or a split block (critical edge).  Redundant original
checks are removed afterwards by the shared elimination pass, which
mirrors the paper's insert-then-eliminate pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.affine import AffineEnv
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .canonical import make_check
from .dataflow import EMPTY, CheckAnalysis, EdgeGen, Facts
from .family import ids_of

Edge = Tuple[Optional[BasicBlock], BasicBlock]


class _PlacementSystem:
    """Shared dataflow state for both placement strategies."""

    def __init__(self, analysis: CheckAnalysis,
                 edge_gen: Optional[EdgeGen] = None) -> None:
        self.analysis = analysis
        self.function = analysis.function
        self.antin, self.antout = analysis.anticipatability()
        self.avin, self.avout = analysis.availability(edge_gen)
        self.edges: List[Edge] = [(None, self.function.entry)]
        for block in analysis.rpo:
            for succ in block.successors():
                self.edges.append((block, succ))

    def earliest(self, edge: Edge) -> Facts:
        pred, succ = edge
        down_safe = self.antin[succ]
        if pred is None:
            return down_safe
        blocked = self.antout[pred] & self.analysis.transp[pred]
        return down_safe & ~self.avout[pred] & ~blocked


def safe_earliest_insertions(analysis: CheckAnalysis,
                             edge_gen: Optional[EdgeGen] = None
                             ) -> Dict[Edge, Facts]:
    """The safe-earliest insertion sets, per edge."""
    system = _PlacementSystem(analysis, edge_gen)
    return {edge: system.earliest(edge) for edge in system.edges
            if system.earliest(edge)}


def latest_insertions(analysis: CheckAnalysis,
                      edge_gen: Optional[EdgeGen] = None
                      ) -> Dict[Edge, Facts]:
    """The latest (LATER-system) insertion sets, per edge."""
    system = _PlacementSystem(analysis, edge_gen)
    earliest: Dict[Edge, Facts] = {
        edge: system.earliest(edge) for edge in system.edges}
    preds = analysis.preds
    universe = analysis.all_ids
    antloc = analysis.antloc

    laterin: Dict[BasicBlock, Facts] = {
        block: universe for block in analysis.rpo}

    def edge_later(edge: Edge) -> Facts:
        pred, _ = edge
        facts = earliest[edge]
        if pred is not None:
            facts |= laterin[pred] & ~antloc[pred]
        return facts

    changed = True
    while changed:
        changed = False
        for block in analysis.rpo:
            incoming_edges: List[Edge] = [(None, block)] \
                if block is analysis.function.entry else []
            incoming_edges.extend((p, block) for p in preds[block])
            merged = universe if incoming_edges else EMPTY
            for edge in incoming_edges:
                merged &= edge_later(edge)
            if merged != laterin[block]:
                laterin[block] = merged
                changed = True
    insertions: Dict[Edge, Facts] = {}
    for edge in system.edges:
        facts = edge_later(edge) & ~laterin[edge[1]]
        if facts:
            insertions[edge] = facts
    return insertions


def apply_insertions(analysis: CheckAnalysis, env: AffineEnv,
                     insertions: Dict[Edge, Facts]) -> int:
    """Materialize insertion sets as Check instructions; returns the
    number of checks inserted."""
    inserted = 0
    for edge, facts in insertions.items():
        chosen = _filter_strongest(analysis, facts)
        placed_block, at_top = _placement(analysis.function, edge)
        for check_id in chosen:
            check = analysis.universe.check_of(check_id)
            variables = {}
            missing = False
            for sym in check.linexpr.symbols():
                var = env.var_for(sym)
                if var is None:
                    missing = True
                    break
                variables[sym] = var
            if missing:
                continue
            inst = make_check(check, variables, kind="upper", array="")
            if at_top:
                placed_block.insert_after_phis(inst)
            else:
                placed_block.insert_before_terminator(inst)
            inserted += 1
    return inserted


def _filter_strongest(analysis: CheckAnalysis, facts: Facts) -> List[int]:
    """Drop facts implied by another fact in the same insertion set."""
    ordered = sorted(ids_of(facts),
                     key=lambda cid: (analysis.universe.family_of[cid],
                                      analysis.universe.check_of(cid).bound))
    kept: List[int] = []
    for check_id in ordered:
        if not any(analysis.cig.as_strong(winner, check_id)
                   for winner in kept):
            kept.append(check_id)
    return kept


def _placement(function: Function, edge: Edge) -> Tuple[BasicBlock, bool]:
    pred, succ = edge
    if pred is None:
        return succ, True
    if len(pred.successors()) == 1:
        return pred, False
    if len(function.predecessors(succ)) == 1:
        return succ, True
    middle = function.split_edge(pred, succ)
    return middle, False
