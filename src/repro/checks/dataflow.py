"""Availability and anticipatability of range checks (section 3.2).

Facts are check ids from a :class:`CheckUniverse`, and a set of facts
is an int bit mask -- bit *i* stands for id *i* -- so both systems are
the bit-vector problems of lazy code motion: union is ``|``,
intersection ``&`` and difference ``a & ~b``.  Code that walks a mask
reads it through :func:`repro.checks.family.ids_of`, which yields its
ids in ascending order.  The generation rules implement the
paper's closure conditions:

* a check statement *generates* its own check **and every weaker
  check** (full CIG closure) for availability;
* it generates its own check and every weaker check **in its family**
  for anticipatability -- the stricter rule that keeps insertions from
  floating above definitions of their symbols;
* a definition of any symbol in a family's range-expression kills all
  of that family's checks (both directions).

Conditional checks (Cond-checks) generate nothing by themselves: a
guarded check is only guaranteed to have executed where its guards are
known true.  Instead, the preheader-insertion schemes register the
facts on the loop's header-to-body edge (``edge_gen``), which is
exactly the region the guard "the loop executes at least once"
protects.  This keeps availability sound across zero-trip loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.dataflow import reverse_postorder
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Check
from ..ir.values import Var
from .canonical import CanonicalCheck
from .cig import CheckImplicationGraph
from .family import CheckUniverse

Facts = int
EdgeGen = Dict[Tuple[BasicBlock, BasicBlock], List[CanonicalCheck]]

EMPTY: Facts = 0


class CheckAnalysis:
    """Block-local sets plus the two global systems for one function."""

    def __init__(self, function: Function, universe: CheckUniverse,
                 cig: CheckImplicationGraph) -> None:
        self.function = function
        self.universe = universe
        self.cig = cig
        self.rpo = reverse_postorder(function)
        self.preds = function.predecessor_map()
        self.all_ids: Facts = (1 << len(universe)) - 1
        self._kill_by_symbol = self._build_kill_map()
        self.comp: Dict[BasicBlock, Facts] = {}
        self.antloc: Dict[BasicBlock, Facts] = {}
        self.transp: Dict[BasicBlock, Facts] = {}
        for block in self.rpo:
            self._local_sets(block)
        # the last availability solution, keyed by its closed edge gens
        self._availability: Optional[Tuple[
            Dict[Tuple[BasicBlock, BasicBlock], Facts],
            Tuple[Dict[BasicBlock, Facts], Dict[BasicBlock, Facts]]]] = None

    # -- local properties ---------------------------------------------------

    def _build_kill_map(self) -> Dict[str, Facts]:
        families = [EMPTY] * len(self.universe.families)
        for check_id, family_id in enumerate(self.universe.family_of):
            families[family_id] |= 1 << check_id
        kill: Dict[str, Facts] = {}
        for linexpr, members in zip(self.universe.families, families):
            for sym in linexpr.symbols():
                kill[sym] = kill.get(sym, EMPTY) | members
        return kill

    def killed_by(self, var: Var) -> Facts:
        """Check ids killed by a definition of ``var``."""
        return self._kill_by_symbol.get(var.name, EMPTY)

    def id_of(self, check: Check) -> Optional[int]:
        """The universe id of a check instruction, or None.  An
        instruction the universe was built from has its id recorded;
        only a check added since is canonicalized."""
        check_id = self.universe.sites.get(check)
        if check_id is None:
            check_id = self.universe.id_of(CanonicalCheck.of(check))
        return check_id

    def gen_of(self, check: Check) -> Facts:
        """Availability facts generated by an (unconditional) check."""
        if check.is_conditional:
            return EMPTY
        check_id = self.id_of(check)
        if check_id is None:
            return EMPTY
        return self.cig.weaker_set(check_id, family_only=False)

    def ant_gen_of(self, check: Check) -> Facts:
        """Anticipatability facts generated by an (unconditional) check."""
        if check.is_conditional:
            return EMPTY
        check_id = self.id_of(check)
        if check_id is None:
            return EMPTY
        return self.cig.weaker_set(check_id, family_only=True)

    def _local_sets(self, block: BasicBlock) -> None:
        # One walk reads each instruction's gen and kill masks.  COMP
        # (locally available at block exit) and TRANSP come out of it
        # forward; ANTLOC (locally anticipatable at block entry) replays
        # the (kill, gen) steps backward.
        weaker_set = self.cig.weaker_set
        kill_by_symbol = self._kill_by_symbol
        steps: List[Tuple[Facts, Facts]] = []
        forward = killed = EMPTY
        for inst in block.instructions:
            ant_gen = EMPTY
            if isinstance(inst, Check) and not inst.is_conditional:
                check_id = self.id_of(inst)
                if check_id is not None:
                    forward |= weaker_set(check_id, family_only=False)
                    ant_gen = weaker_set(check_id, family_only=True)
            dead = EMPTY
            dest = inst.def_var()
            if dest is not None:
                dead = kill_by_symbol.get(dest.name, EMPTY)
                forward &= ~dead
                killed |= dead
            if dead or ant_gen:
                steps.append((dead, ant_gen))
        self.comp[block] = forward
        self.transp[block] = self.all_ids & ~killed
        backward = EMPTY
        for dead, ant_gen in reversed(steps):
            backward = (backward & ~dead) | ant_gen
        self.antloc[block] = backward

    # -- global availability ---------------------------------------------------

    def availability(self, edge_gen: Optional[EdgeGen] = None
                     ) -> Tuple[Dict[BasicBlock, Facts],
                                Dict[BasicBlock, Facts]]:
        """Solve AVIN/AVOUT (forward, intersection), honoring edge gens.

        Equal closed edge-gen masks give an equal solution, so the last
        one is kept and returned again for them: callers read it and
        never edit it."""
        closed_edges = self._close_edge_gen(edge_gen)
        if self._availability is not None and \
                self._availability[0] == closed_edges:
            return self._availability[1]
        avin: Dict[BasicBlock, Facts] = {}
        avout: Dict[BasicBlock, Facts] = {}
        for block in self.rpo:
            avin[block] = self.all_ids
            avout[block] = self.all_ids
        entry = self.function.entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                preds = self.preds[block]
                if block is entry or not preds:
                    incoming = EMPTY
                else:
                    incoming = self.all_ids
                    for pred in preds:
                        incoming &= avout[pred] | \
                            closed_edges.get((pred, block), EMPTY)
                avin[block] = incoming
                outgoing = self.comp[block] | (incoming & self.transp[block])
                if outgoing != avout[block]:
                    avout[block] = outgoing
                    changed = True
        self._availability = (closed_edges, (avin, avout))
        return avin, avout

    def _close_edge_gen(self, edge_gen: Optional[EdgeGen]
                        ) -> Dict[Tuple[BasicBlock, BasicBlock], Facts]:
        closed: Dict[Tuple[BasicBlock, BasicBlock], Facts] = {}
        if not edge_gen:
            return closed
        for edge, checks in edge_gen.items():
            facts = EMPTY
            for check in checks:
                check_id = self.universe.id_of(check)
                if check_id is not None:
                    facts |= self.cig.weaker_set(check_id, family_only=False)
            closed[edge] = facts
        return closed

    # -- global anticipatability ---------------------------------------------

    def anticipatability(self) -> Tuple[Dict[BasicBlock, Facts],
                                        Dict[BasicBlock, Facts]]:
        """Solve ANTIN/ANTOUT (backward, intersection)."""
        antin: Dict[BasicBlock, Facts] = {}
        antout: Dict[BasicBlock, Facts] = {}
        for block in self.rpo:
            antin[block] = self.all_ids
            antout[block] = self.all_ids
        order = list(reversed(self.rpo))
        changed = True
        while changed:
            changed = False
            for block in order:
                successors = block.successors()
                outgoing = self.all_ids if successors else EMPTY
                for succ in successors:
                    outgoing &= antin[succ]
                antout[block] = outgoing
                incoming = self.antloc[block] | \
                    (outgoing & self.transp[block])
                if incoming != antin[block]:
                    antin[block] = incoming
                    changed = True
        return antin, antout

    # -- statement-level walks --------------------------------------------------

    def facts_before_checks(self, block: BasicBlock, entry_facts: Facts
                            ) -> List[Tuple[int, Check, Facts]]:
        """Forward walk: (index, check, availability facts just before)."""
        result: List[Tuple[int, Check, Facts]] = []
        current = entry_facts
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Check):
                result.append((index, inst, current))
                current |= self.gen_of(inst)
            dest = inst.def_var()
            if dest is not None:
                current &= ~self.killed_by(dest)
        return result

    def ant_before_positions(self, block: BasicBlock, exit_facts: Facts
                             ) -> List[Tuple[int, Check, Facts]]:
        """Backward walk: (index, check, anticipatable facts just before
        the check executes, i.e. including the check's own generation)."""
        result: List[Tuple[int, Check, Facts]] = []
        current = exit_facts
        for index in range(len(block.instructions) - 1, -1, -1):
            inst = block.instructions[index]
            dest = inst.def_var()
            if dest is not None:
                current &= ~self.killed_by(dest)
            if isinstance(inst, Check):
                current |= self.ant_gen_of(inst)
                result.append((index, inst, current))
        result.reverse()
        return result
