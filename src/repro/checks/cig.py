"""The Check Implication Graph (section 3.1 of the paper).

Nodes are *families* of checks.  A discovered implication
``Check(F_I <= c_i) => Check(F_J <= c_j)`` adds an edge ``F_I -> F_J``
with weight ``c_j - c_i``; parallel edges keep the minimum weight.
Check ``C_i`` is then *as strong as* ``C_j`` iff there is a path with

    range-constant(C_i) + pathweight(F_I, F_J) <= range-constant(C_j)

(the trivial same-family path has weight 0).  Figure 4's example:
``(n <= 6) => (m <= 10)`` adds weight 4, from which ``(n <= 1)`` is as
strong as ``(m <= 7)`` but *not* as strong as ``(m <= 3)``.

The :class:`ImplicationMode` ablation of Table 3 is applied here: NONE
reduces "as strong as" to equality; CROSS_FAMILY disables the
within-family ordering but keeps edges (so preheader Cond-checks still
imply the loop-body checks they were created from -- the one kind of
implication the paper found to matter).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..symbolic import LinearExpr
from .canonical import CanonicalCheck
from .config import ImplicationMode
from .family import CheckUniverse, ids_of

FamilyPair = Tuple[LinearExpr, LinearExpr]


class ImplicationStore:
    """Persistent implication edges, keyed by family range-expressions.

    The store outlives any particular :class:`CheckUniverse`: insertion
    schemes register edges while they create checks, and each dataflow
    run builds a fresh CIG over the current universe plus these edges.
    """

    def __init__(self) -> None:
        self.edges: Dict[FamilyPair, int] = {}

    def add(self, strong: CanonicalCheck, weak: CanonicalCheck) -> None:
        """Record that ``strong`` implies ``weak``."""
        key = (strong.linexpr, weak.linexpr)
        weight = weak.bound - strong.bound
        existing = self.edges.get(key)
        if existing is None or weight < existing:
            self.edges[key] = weight

    def add_edge(self, src: LinearExpr, dst: LinearExpr, weight: int) -> None:
        """Record a raw family edge with an explicit weight."""
        key = (src, dst)
        existing = self.edges.get(key)
        if existing is None or weight < existing:
            self.edges[key] = weight

    def __len__(self) -> int:
        return len(self.edges)


class CheckImplicationGraph:
    """The as-strong-as relation over one universe, under one mode."""

    def __init__(self, universe: CheckUniverse,
                 store: Optional[ImplicationStore] = None,
                 mode: ImplicationMode = ImplicationMode.ALL) -> None:
        self.universe = universe
        self.store = store or ImplicationStore()
        self.mode = mode
        self._rows = self._shortest_paths()
        # per family, strongest first: the members' bounds, and the
        # mask of the members from each position on (one extra, empty
        # suffix at the end)
        self._bounds: List[List[int]] = []
        self._suffixes: List[List[int]] = []
        for family in range(len(universe.families)):
            members = universe.family_members(family)
            self._bounds.append([universe.checks[cid].bound
                                 for cid in members])
            suffixes = [0]
            for cid in reversed(members):
                suffixes.append(suffixes[-1] | 1 << cid)
            suffixes.reverse()
            self._suffixes.append(suffixes)
        self._weaker_cache: Dict[Tuple[int, bool], int] = {}

    # -- family graph -----------------------------------------------------

    def _shortest_paths(self) -> Dict[int, Dict[int, int]]:
        """All-pairs shortest path weights over the family edge graph,
        one row per source family: ``rows[source][target]``.

        Only families touched by explicit edges participate; the
        implicit same-family distance 0 is handled in :meth:`as_strong`.
        Bellman-Ford from each source of the (small) edge subgraph.
        """
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        nodes = set()
        for (src_expr, dst_expr), weight in self.store.edges.items():
            src = self.universe.family_id(src_expr)
            dst = self.universe.family_id(dst_expr)
            if src is None or dst is None:
                continue
            adjacency.setdefault(src, []).append((dst, weight))
            nodes.add(src)
            nodes.add(dst)
        rows: Dict[int, Dict[int, int]] = {}
        for source in nodes:
            best = {source: 0}
            # Bellman-Ford: |nodes| - 1 relaxation rounds
            for _ in range(max(1, len(nodes) - 1)):
                changed = False
                for node, cost in list(best.items()):
                    for succ, weight in adjacency.get(node, ()):  # relax
                        candidate = cost + weight
                        if candidate < best.get(succ, candidate + 1):
                            best[succ] = candidate
                            changed = True
                if not changed:
                    break
            row = {target: cost for target, cost in best.items()
                   if target != source}
            if row:
                rows[source] = row
        return rows

    def _path(self, source: int, target: int) -> Optional[int]:
        """The shortest path weight between two distinct families, or
        None when there is no path."""
        row = self._rows.get(source)
        return row.get(target) if row else None

    # -- the as-strong-as relation --------------------------------------------

    def as_strong(self, strong_id: int, weak_id: int) -> bool:
        """True when check ``strong_id`` is as strong as ``weak_id``."""
        if strong_id == weak_id:
            return True
        strong = self.universe.check_of(strong_id)
        weak = self.universe.check_of(weak_id)
        if self.mode is ImplicationMode.NONE:
            return False  # distinct checks never imply each other
        same_family = self.universe.family_of[strong_id] == \
            self.universe.family_of[weak_id]
        if same_family:
            if self.mode is ImplicationMode.CROSS_FAMILY:
                return False
            return strong.bound <= weak.bound
        fam_s = self.universe.family_of[strong_id]
        fam_w = self.universe.family_of[weak_id]
        path = self._path(fam_s, fam_w)
        if path is None:
            return False
        return strong.bound + path <= weak.bound

    def weaker_set(self, check_id: int, family_only: bool = False) -> int:
        """The mask of all registered checks that ``check_id`` is as
        strong as (including itself).

        With ``family_only`` the closure is restricted to the check's
        own family -- the stricter generation rule anticipatability
        uses (section 3.2), which guarantees a check is never inserted
        before a definition of one of its symbols.

        As-strong-as is a threshold on the weaker check's bound, so the
        answer is a suffix of each reachable family's members sorted by
        bound: one bisect and one suffix mask in the check's own family
        (unless the mode turns within-family implication off) and one
        per family in its shortest-path row.
        """
        key = (check_id, family_only)
        cached = self._weaker_cache.get(key)
        if cached is not None:
            return cached
        family = self.universe.family_of[check_id]
        bound = self.universe.checks[check_id].bound
        reachable: List[Tuple[int, int]] = []
        if self.mode is ImplicationMode.ALL:
            reachable.append((family, 0))
        if not family_only and self.mode is not ImplicationMode.NONE:
            reachable.extend(self._rows.get(family, {}).items())
        weaker = 1 << check_id
        for target, path in reachable:
            start = bisect_left(self._bounds[target], bound + path)
            weaker |= self._suffixes[target][start]
        self._weaker_cache[key] = weaker
        return weaker

    def strongest_implying(self, check_id: int, candidates: int,
                           cross_family: bool = False) -> Optional[int]:
        """The strongest check in the ``candidates`` mask that implies
        ``check_id`` (used by CS).

        Candidates from ``check_id``'s own family are ranked by their
        bound.  With ``cross_family`` -- the paper's general definition
        -- candidates from other families also qualify when the family
        graph has an implication path; they are ranked by the bound
        they *effectively impose* on ``check_id``'s family (their own
        bound plus the path weight), which makes scores comparable
        across families.  Of two candidates that impose the same bound,
        the lower id wins."""
        family = self.universe.family_of[check_id]
        best: Optional[int] = None
        best_score: Optional[int] = None
        for cid in ids_of(candidates):
            candidate_family = self.universe.family_of[cid]
            if candidate_family == family:
                score = self.universe.check_of(cid).bound
            elif cross_family:
                path = self._path(candidate_family, family)
                if path is None:
                    continue
                score = self.universe.check_of(cid).bound + path
            else:
                continue
            if not self.as_strong(cid, check_id):
                continue
            if best_score is None or score < best_score:
                best = cid
                best_score = score
        return best
