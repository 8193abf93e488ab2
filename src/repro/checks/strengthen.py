"""Check strengthening (Gupta's scheme; CS in the paper, section 3.3).

For each check C, compute the strongest check C' that is anticipatable
at C's program point and implies C, and replace C with C' (the paper:
"the actual mechanism is to replace C by C'").  Strengthening reorders
strength at existing check sites and never creates a check at a new
program point, which is what makes it a conservative form of
safe-earliest placement: it avoids the profitability problem of
Figure 5.  Cross-family impliers (reached through the CIG's weighted
edges) qualify too; the anticipatability kill rule guarantees their
operand symbols are defined wherever the fact is anticipatable, so the
replacement can always rebind operands at the site.
"""

from __future__ import annotations

from typing import Dict

from ..errors import IRError
from ..ir.instructions import Check
from ..ir.values import Var
from .canonical import CanonicalCheck
from .dataflow import CheckAnalysis


def _operands_for(stronger: CanonicalCheck, check: Check,
                  analysis: CheckAnalysis) -> Dict[str, Var]:
    """Operand map for the replacement check.

    The replacement tests ``stronger.linexpr``, so its operands must
    cover *that* expression's symbols -- not the replaced check's.
    Symbols the two checks share keep the original operand ``Var``;
    symbols only the stronger check mentions are rebound by name from
    the function's scalar table (anticipatability guarantees the
    defining assignment dominates this site).
    """
    operands: Dict[str, Var] = {}
    for sym in stronger.linexpr.symbols():
        var = check.operands.get(sym)
        if var is None:
            stype = analysis.function.scalar_types.get(sym)
            if stype is None:
                raise IRError(
                    "strengthening %s: no scalar %r for the stronger "
                    "check's operand" % (check, sym))
            var = Var(sym, stype)
        operands[sym] = var
    return operands


def strengthen_checks(analysis: CheckAnalysis) -> int:
    """Replace checks with their strongest anticipatable implier.

    Returns the number of strengthened (replaced) checks.
    """
    _, antout = analysis.anticipatability()
    replaced = 0
    for block in analysis.rpo:
        for index, check, facts in analysis.ant_before_positions(
                block, antout[block]):
            if check.is_conditional:
                continue
            check_id = analysis.id_of(check)
            if check_id is None:
                continue
            best = analysis.cig.strongest_implying(check_id, facts,
                                                   cross_family=True)
            if best is None or best == check_id:
                continue
            stronger = analysis.universe.check_of(best)
            same_family = analysis.universe.family_of[best] == \
                analysis.universe.family_of[check_id]
            if same_family and stronger.bound >= \
                    analysis.universe.check_of(check_id).bound:
                continue
            replacement = Check(stronger.linexpr, stronger.bound,
                                _operands_for(stronger, check, analysis),
                                check.kind, check.array)
            block.remove(check)
            block.insert(index, replacement)
            replaced += 1
    return replaced
