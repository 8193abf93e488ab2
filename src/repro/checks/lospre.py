"""Profile-priced placement of the checks the LLS hoist leaves (lospre).

``Scheme.LO`` keeps the paper's LLS preheader machinery and replaces
only the final LCM step.  Of two whole-function placements it keeps
the one that executes fewer checks at a training profile's edge
counts (:class:`repro.pipeline.profile.EdgeProfile`): the LCM latest
insertions (:func:`repro.checks.lcm.latest_insertions`), or none,
which leaves the plain LLS residual checks.  A tie keeps latest, and
so does a missing profile or a function the profile does not cover.

No other insertion map is worth pricing.  Lazy code motion's latest
placement is computationally optimal: on every path it executes no
more checks than any other down-safe placement.  A profile that a run
records is a set of whole paths (a run that traps or hits its step
limit only loses flow downstream of where it stopped), so it prices
no down-safe placement below latest.  Inserting where a check is not
down-safe would be real speculation, and a speculated range check can
trap where the program would not; SPEC's guarded loop versioning is
the sound form of that.

Latest can still lose to the residual, because per-fact optimality
does not see how placements interact.  Realization collapses
co-located insertions to the strongest check, and, because
anticipatability is closed under implication, a fact's "use" can be a
site whose own check is stronger, which an inserted weaker check can
never eliminate.  So :func:`_placement_cost` replays the elimination
pass over each candidate, and "trained LO never executes more checks
than LLS" holds per run.

The name is historical (Knoop et al.'s lifetime-optimal speculative
PRE): for checks the lifetime axis is vacuous, since a check defines
no value.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .dataflow import CheckAnalysis, EdgeGen, Facts
from .eliminate import compile_time_verdict
from .lcm import Edge, _filter_strongest, latest_insertions


def lospre_insertions(analysis: CheckAnalysis,
                      edge_gen: Optional[EdgeGen] = None,
                      profile=None) -> Dict[Edge, Facts]:
    """LCM latest's insertion sets, or none where the profile prices
    the LLS residual strictly cheaper."""
    latest = latest_insertions(analysis, edge_gen)
    counts = (profile.functions.get(analysis.function.name)
              if profile is not None else None)
    if counts is not None and (
            _placement_cost(analysis, edge_gen, counts, {})
            < _placement_cost(analysis, edge_gen, counts, latest)):
        return {}
    return latest


def _placement_cost(analysis: CheckAnalysis,
                    edge_gen: Optional[EdgeGen],
                    counts: Dict[Tuple[str, str], int],
                    insertions: Dict[Edge, Facts]) -> int:
    """Profile-weighted dynamic check count of one candidate map.

    ``counts`` is one function's recorded edge counts.  Replays the
    downstream pipeline read-only: insertions are modeled as edge gens
    (exactly how realization lands them -- end of a single-successor
    predecessor, start of a single-predecessor successor, or a split
    block, all of which execute once per edge traversal), availability
    is re-solved with them, and every original check the elimination
    pass would keep is charged its block's execution count, the sum of
    its recorded incoming-edge counts (the entry pseudo-edge
    included).  Inserted checks are charged their edge's recorded
    count (0 if never taken) after the same strongest-only filter
    realization applies.  Compile-time folding of inserted checks is
    ignored, which only ever over-prices the latest map."""
    inflow: Dict[str, int] = {}
    for (_, dst), count in counts.items():
        inflow[dst] = inflow.get(dst, 0) + count
    universe = analysis.universe
    merged: EdgeGen = {edge: list(checks)
                       for edge, checks in (edge_gen or {}).items()}
    inserted_cost = 0
    for edge, facts in insertions.items():
        pred, succ = edge
        kept = _filter_strongest(analysis, facts)
        src = pred.name if pred is not None else ""
        inserted_cost += counts.get((src, succ.name), 0) * len(kept)
        merged.setdefault(edge, []).extend(
            universe.check_of(fact) for fact in kept)
    avin, _ = analysis.availability(merged)
    surviving_cost = 0
    for block in analysis.rpo:
        count = inflow.get(block.name, 0)
        if not count:
            continue
        for _, check, facts in analysis.facts_before_checks(
                block, avin[block]):
            # step 5 deletes it or turns it into a trap: either way
            # it executes no check at run time
            if compile_time_verdict(check) is not None:
                continue
            check_id = analysis.id_of(check)
            if check_id is None or not facts >> check_id & 1:
                surviving_cost += count
    return inserted_cost + surviving_cost
