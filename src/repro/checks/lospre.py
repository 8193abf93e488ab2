"""Profile-guided lifetime-optimal speculative PRE of checks (lospre).

``Scheme.LO`` keeps the paper's LLS preheader machinery and replaces
only the final LCM step: instead of taking the LATER system's *latest*
edges unconditionally, each canonical-check fact is placed by a
minimum cut through its postponement region, weighted by per-edge
execution counts from a training profile
(:class:`repro.pipeline.profile.EdgeProfile`).

The flow network per fact ``f`` mirrors the LATER region solved by
:class:`repro.checks.lcm.LaterSystem`:

* one node ``n_e`` per program edge ``e = (u, v)`` with
  ``f in edge_later(e)`` (the edges postponement can cross), plus one
  node per *region block* (``f in laterin[b]``);
* ``S -> n_e`` with infinite capacity where ``f in earliest(e)`` --
  flow enters where the check first becomes placeable;
* ``u -> n_e`` with infinite capacity where postponement continues
  through ``u`` (``f in laterin[u] - antloc[u]``);
* ``n_e -> v`` (region head) or ``n_e -> T`` (region exit) with
  capacity ``w(e)``, the profiled execution count of ``e`` -- the only
  finite arcs, so a cut is exactly a set of insertion edges;
* ``v -> T`` with infinite capacity where ``f in antloc[v]`` -- a use
  pins the region's downstream boundary.

Every ``S``-to-``T`` path is a profiled execution path from a
down-safe entry of the region to a use, so a cut is a correct
placement, and its capacity is precisely the profile-weighted dynamic
count of the inserted checks.  Because ``laterin`` is contained in the
down-safe (anticipatable) region, *any* cut edge is as safe as the SE
scheme's earliest placement: speculation can reorder which check
triggers a trap but can never introduce a spurious one.

Placement policy per fact:

* the classic latest cut (region-exit arcs plus arcs into use blocks)
  is always a valid cut, so ``min_cut <= latest_cost`` by max-flow
  min-cut;
* the min cut is adopted only when **strictly** cheaper -- on a tie
  (including every tie at zero) the LCM latest edges are kept
  verbatim, so a profile that observed nothing changes nothing;
* per-fact decisions alone cannot see how placements interact
  downstream (realization collapses co-located insertions to the
  strongest check, and -- because anticipatability is closed under
  implication -- a fact's "use" can be a site whose own check is
  stronger, which an inserted weaker check can never eliminate), so
  the final choice is made by *measurement*: the elimination pass is
  simulated read-only over each whole-function candidate map (empty
  == the plain LLS residual placement, LCM latest, per-fact cuts),
  inserted plus surviving checks are priced at the observed edge
  counts, and the cheapest map wins (ties keep LCM latest; the
  alternatives are adopted only when strictly cheaper) -- this is
  what makes "trained LO never executes more checks than LLS" hold
  per run, not just per fact;
* with no profile at all the pass returns :func:`latest_insertions`
  unchanged -- the uniform-cost degradation that keeps ``Scheme.LO``
  runnable everywhere.

Unknown costs degrade safely, and *asymmetrically*: as a candidate
insertion site, an edge touching a block the profile has never heard
of (a stale or foreign artifact that survived fingerprint and source
checks, or a region the training run never reached) is priced *hot*
(total weight + 1), steering the cut away from speculating on bad
data; as part of the latest baseline the same edge is priced at its
*observed* count -- zero -- because the training run demonstrably
executed nothing there, and pricing the baseline hot would
manufacture phantom speculation wins.  An edge between blocks the
profile has seen but never took costs zero either way (genuinely
cold -- the profitable speculation target).  A corollary worth
knowing: a merely *truncated* training run (trap or step limit) never
fires a cut, because real flow only leaks downstream, which makes the
latest placement the cheapest observed cut; speculation pays off only
when the profile is genuinely inconsistent with the evaluated input
(cross-input training, or a hand-built profile).

The name is historical (Knoop et al.'s lifetime-optimal speculative
PRE): for checks the lifetime axis is vacuous -- a check defines no
value -- so among equal-cost cuts we keep the source-side minimum cut,
matching this repo's preference for early checks (maximum downstream
redundancy).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..ir.basicblock import BasicBlock
from .dataflow import EMPTY, CheckAnalysis, EdgeGen, Facts
from .eliminate import compile_time_verdict
from .family import ids_of
from .lcm import Edge, LaterSystem, _filter_strongest, latest_insertions

#: Effectively-infinite capacity; every real capacity is a profile
#: count, far below this, so infinite arcs can never be cut.
_INF = 1 << 60


class _FlowNetwork:
    """A tiny deterministic max-flow network (Edmonds-Karp).

    Arcs are stored in insertion order and paired with their reverse
    (``arc ^ 1``); breadth-first augmentation over that fixed order
    makes flows -- and therefore cuts -- deterministic for a given
    construction order, which the caller drives in RPO.
    """

    def __init__(self) -> None:
        self.heads: List[int] = []
        self.caps: List[int] = []
        self.adj: Dict[int, List[int]] = {}

    def add_arc(self, tail: int, head: int, cap: int) -> int:
        index = len(self.heads)
        self.heads.extend((head, tail))
        self.caps.extend((cap, 0))
        self.adj.setdefault(tail, []).append(index)
        self.adj.setdefault(head, []).append(index + 1)
        return index

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            parent_arc: Dict[int, int] = {source: -1}
            queue = deque([source])
            while queue and sink not in parent_arc:
                node = queue.popleft()
                for arc in self.adj.get(node, ()):
                    head = self.heads[arc]
                    if self.caps[arc] > 0 and head not in parent_arc:
                        parent_arc[head] = arc
                        queue.append(head)
            if sink not in parent_arc:
                return total
            bottleneck = _INF
            node = sink
            while node != source:
                arc = parent_arc[node]
                bottleneck = min(bottleneck, self.caps[arc])
                node = self.heads[arc ^ 1]
            node = sink
            while node != source:
                arc = parent_arc[node]
                self.caps[arc] -= bottleneck
                self.caps[arc ^ 1] += bottleneck
                node = self.heads[arc ^ 1]
            total += bottleneck

    def source_side(self, source: int) -> Set[int]:
        """Nodes reachable from the source in the residual network
        (call after :meth:`max_flow`): the source-side min cut."""
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for arc in self.adj.get(node, ()):
                head = self.heads[arc]
                if self.caps[arc] > 0 and head not in seen:
                    seen.add(head)
                    queue.append(head)
        return seen


class _EdgeWeights:
    """The profiled cost function for one function's edges."""

    def __init__(self, profile, function_name: str) -> None:
        self.edges = profile.functions.get(function_name)
        self._inflow: Dict[str, int] = {}
        if self.edges is None:
            self.known: Set[str] = set()
            self.hot = 1
            return
        self.known = set()
        for (src, dst), count in self.edges.items():
            if src:
                self.known.add(src)
            self.known.add(dst)
            self._inflow[dst] = self._inflow.get(dst, 0) + count
        self.hot = sum(self.edges.values()) + 1

    @property
    def trained(self) -> bool:
        return self.edges is not None

    def weight(self, edge: Edge) -> int:
        """Placement price of inserting on ``edge``: the recorded
        count, or *hot* when the edge touches a block the training run
        never reached -- speculating into unobserved territory is
        never profitable."""
        pred, succ = edge
        src = pred.name if pred is not None else ""
        key = (src, succ.name)
        count = self.edges.get(key)
        if count is not None:
            return count
        # never-taken edge between profiled blocks: genuinely cold
        if (not src or src in self.known) and succ.name in self.known:
            return 0
        return self.hot

    def observed(self, edge: Edge) -> int:
        """Training-run cost of ``edge``: the recorded count, zero if
        never taken.  This is the honest baseline price -- an edge the
        run never reached executed nothing, so pricing it hot would
        inflate the latest placement's cost and manufacture phantom
        speculation wins."""
        pred, succ = edge
        src = pred.name if pred is not None else ""
        return self.edges.get((src, succ.name), 0)

    def block_count(self, block: BasicBlock) -> int:
        """Observed executions of ``block``: the sum of its recorded
        incoming-edge counts (the entry pseudo-edge included)."""
        return self._inflow.get(block.name, 0)


def lospre_insertions(analysis: CheckAnalysis,
                      edge_gen: Optional[EdgeGen] = None,
                      profile=None
                      ) -> Tuple[Dict[Edge, Facts], int]:
    """Min-cost insertion sets per edge, plus the number of facts
    whose min cut strictly beat the latest placement."""
    if profile is None:
        return latest_insertions(analysis, edge_gen), 0
    weights = _EdgeWeights(profile, analysis.function.name)
    later = LaterSystem(analysis, edge_gen)
    latest = later.insertions()
    if not weights.trained:
        return latest, 0

    edge_later: Dict[Edge, Facts] = {
        edge: later.edge_later(edge) for edge in later.edges}
    latest_by_fact: Dict[int, List[Edge]] = {}
    for edge, facts in latest.items():
        for fact in ids_of(facts):
            latest_by_fact.setdefault(fact, []).append(edge)
    all_facts = EMPTY
    for facts in edge_later.values():
        all_facts |= facts

    chosen: Dict[Edge, Facts] = {}
    speculated = 0
    for fact in ids_of(all_facts):
        placement, better = _place_fact(fact, later, edge_later, weights)
        if not better:
            placement = latest_by_fact.get(fact, [])
        else:
            speculated += 1
        for edge in placement:
            chosen[edge] = chosen.get(edge, EMPTY) | 1 << fact

    # Per-fact cuts (and LCM latest itself) price each fact
    # independently, but neither accounts for how the placements
    # interact downstream: realization collapses co-located insertions
    # to the strongest check, and -- because anticipatability is
    # closed under implication -- a fact's "use" can be a site whose
    # own check is *stronger*, which an inserted weaker check can
    # never eliminate.  So the final choice is made by measurement:
    # simulate the elimination pass over each whole-function candidate
    # map, price inserted plus surviving checks at the observed edge
    # counts, and keep the cheapest.  The empty map reproduces the
    # plain LLS residual placement, which is what makes "trained LO
    # never executes more checks than LLS" hold per run.
    best_map: Dict[Edge, Facts] = latest
    best_cost = _placement_cost(analysis, edge_gen, weights, latest)
    none_cost = _placement_cost(analysis, edge_gen, weights, {})
    cuts = 0
    if none_cost < best_cost:
        best_map, best_cost = {}, none_cost
    if speculated and _placement_cost(analysis, edge_gen, weights,
                                      chosen) < best_cost:
        best_map, cuts = chosen, speculated
    return best_map, cuts


def _placement_cost(analysis: CheckAnalysis,
                    edge_gen: Optional[EdgeGen],
                    weights: "_EdgeWeights",
                    insertions: Dict[Edge, Facts]) -> int:
    """Profile-weighted dynamic check count of one candidate map.

    Replays the downstream pipeline read-only: insertions are modeled
    as edge gens (exactly how realization lands them -- end of a
    single-successor predecessor, start of a single-predecessor
    successor, or a split block, all of which execute once per edge
    traversal), availability is re-solved with them, and every
    original check the elimination pass would keep is charged its
    block's observed execution count.  Inserted checks are charged
    their edge's observed count after the same strongest-only filter
    realization applies.  Compile-time folding of inserted checks is
    ignored, which only ever over-prices an insertion-bearing map --
    the bias is against speculation, never against the baseline."""
    universe = analysis.universe
    merged: EdgeGen = {edge: list(checks)
                       for edge, checks in (edge_gen or {}).items()}
    inserted_cost = 0
    for edge, facts in insertions.items():
        kept = _filter_strongest(analysis, facts)
        inserted_cost += weights.observed(edge) * len(kept)
        merged.setdefault(edge, []).extend(
            universe.check_of(fact) for fact in kept)
    avin, _ = analysis.availability(merged)
    surviving_cost = 0
    for block in analysis.rpo:
        count = weights.block_count(block)
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


def _place_fact(fact: int, later: LaterSystem,
                edge_later: Dict[Edge, Facts],
                weights: _EdgeWeights
                ) -> Tuple[List[Edge], bool]:
    """Solve one fact's min cut; returns (cut edges, strictly_better)."""
    analysis = later.analysis
    antloc = analysis.antloc
    laterin = later.laterin

    bit = 1 << fact
    source, sink = 0, 1
    block_node: Dict[BasicBlock, int] = {}
    next_node = 2
    for block in analysis.rpo:
        if laterin[block] & bit:
            block_node[block] = next_node
            next_node += 1

    net = _FlowNetwork()
    cut_arcs: List[Tuple[int, Edge]] = []
    latest_cost = 0
    for edge in later.edges:
        if not edge_later[edge] & bit:
            continue
        pred, succ = edge
        node = next_node
        next_node += 1
        if later.earliest[edge] & bit:
            net.add_arc(source, node, _INF)
        if pred is not None and laterin[pred] & ~antloc[pred] & bit:
            net.add_arc(block_node[pred], node, _INF)
        weight = weights.weight(edge)
        head = block_node.get(succ, sink) if laterin[succ] & bit else sink
        arc = net.add_arc(node, head, weight)
        cut_arcs.append((arc, edge))
        # the classic latest cut: arcs leaving the region, plus arcs
        # into a use block (where LCM leaves the original check) --
        # priced at the *observed* count (an unreached edge cost the
        # training run nothing), while candidate arcs above are priced
        # hot on unknowns: the asymmetry makes the comparison
        # pessimistic for speculation, never for the baseline
        if head == sink or antloc[succ] & bit:
            latest_cost += weights.observed(edge)
    for block, node in block_node.items():
        if antloc[block] & bit:
            net.add_arc(node, sink, _INF)

    cut_cost = net.max_flow(source, sink)
    if cut_cost >= latest_cost:
        return [], False
    reachable = net.source_side(source)
    cut = [edge for arc, edge in cut_arcs
           if net.heads[arc ^ 1] in reachable
           and net.heads[arc] not in reachable]
    return cut, True
