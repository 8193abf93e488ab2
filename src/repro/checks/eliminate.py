"""Steps 4 and 5 of the optimizer: redundancy elimination and
compile-time evaluation of checks.

A check is redundant when a check at least as strong is *available* at
its program point (the availability facts are closed under implication,
so redundancy is one bit test on the fact mask).  With ``prove=True`` a
second, semantic tier handles what the syntactic tier cannot: the
available canonical checks become hypotheses for the linear-inequality
prover (:mod:`repro.symbolic.prover`), which decides cross-family
consequences such as ``i - n <= 0`` from ``i - j <= 0`` and
``j - n <= 0`` -- the shape that argument-carried symbolic bounds
produce after inlining.  Compile-time checks -- those whose
range-expression has no symbols -- are either deleted (always true) or
replaced by an unconditional :class:`Trap` and reported (always
false).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import Check, Trap
from ..symbolic.prover import entails
from .canonical import CanonicalCheck
from .dataflow import CheckAnalysis, EdgeGen, Facts
from .family import ids_of


def eliminate_redundant(analysis: CheckAnalysis,
                        edge_gen: Optional[EdgeGen] = None,
                        prove: bool = False) -> Tuple[int, int]:
    """Delete every check that is available at its own site.

    Returns ``(removed, proved)``: checks deleted by the syntactic
    membership test, and checks additionally discharged by the linear
    prover (0 unless ``prove``).  Deleting a proved check is sound for
    the same reason the syntactic tier is: the hypotheses are checks
    that definitely executed (or are themselves implied by ones that
    did), and entailment is transitive, so every deleted check could
    never have trapped.
    """
    avin, _ = analysis.availability(edge_gen)
    removed = 0
    proved = 0
    verdicts: Dict[Tuple[Facts, int], bool] = {}
    for block in analysis.rpo:
        doomed: List[Check] = []
        for _, check, facts in analysis.facts_before_checks(
                block, avin[block]):
            check_id = analysis.id_of(check)
            if check_id is not None and facts >> check_id & 1:
                doomed.append(check)
                removed += 1
            elif prove and facts and check_id is not None and _prove_check(
                    analysis, facts, check_id, verdicts):
                doomed.append(check)
                proved += 1
        for check in doomed:
            block.remove(check)
    return removed, proved


def _prove_check(analysis: CheckAnalysis, facts: Facts, check_id: int,
                 verdicts: Dict[Tuple[Facts, int], bool]) -> bool:
    """Ask the prover whether the available facts entail check
    ``check_id``.

    Verdicts are memoized per ``(fact mask, check id)`` -- loop-resident
    checks are revisited with identical fact sets many times.
    """
    key = (facts, check_id)
    verdict = verdicts.get(key)
    if verdict is None:
        hypotheses = []
        for fact_id in ids_of(facts):
            fact = analysis.universe.check_of(fact_id)
            hypotheses.append((fact.linexpr, fact.bound))
        goal = analysis.universe.check_of(check_id)
        verdict = entails(hypotheses, (goal.linexpr, goal.bound))
        verdicts[key] = verdict
    return verdict


def fold_compile_time(function: Function) -> Tuple[int, List[str]]:
    """Evaluate checks made only of compile-time constants.

    Returns ``(number deleted, messages for always-false checks)``.
    Always-false checks become :class:`Trap` instructions, reported to
    the "programmer" via the returned messages (the paper's step 5).
    Checks that stay lose their compile-time-true guards.
    """
    removed = 0
    reports: List[str] = []
    for block in function.blocks:
        for index in range(len(block.instructions) - 1, -1, -1):
            inst = block.instructions[index]
            if not isinstance(inst, Check):
                continue
            verdict = compile_time_verdict(inst)
            if verdict is None:
                kept = [guard for guard in inst.guards
                        if not guard.linexpr.is_constant()]
                if len(kept) != len(inst.guards):
                    inst.guards = kept
            elif verdict:
                block.remove(inst)
                removed += 1
            else:
                message = ("range check (%s <= %d) on array %s always fails"
                           % (inst.linexpr, inst.bound, inst.array or "?"))
                reports.append(message)
                trap = Trap(message)
                block.remove(inst)
                block.insert(index, trap)
    return removed, reports


def compile_time_verdict(check: Check) -> Optional[bool]:
    """What step 5 does with a check: ``True`` deletes it, ``False``
    turns it into a trap, ``None`` keeps it.

    Guards participate: a compile-time-false guard makes the whole
    Cond-check vacuously true (deletable); compile-time-true guards do
    not matter.  A symbolic guard blocks evaluation even when the body
    is constant-false, because the check may legitimately never run.
    """
    symbolic_guard = False
    for guard in check.guards:
        if not guard.linexpr.is_constant():
            symbolic_guard = True
        elif guard.linexpr.const > guard.bound:
            return True  # guard statically false: check never performed
    body = CanonicalCheck.of(check)
    if not body.is_compile_time():
        return None
    if body.evaluate_compile_time():
        return True
    if symbolic_guard:
        return None  # would trap, but only if the guards hold at run time
    return False
