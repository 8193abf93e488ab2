"""INX-check construction (section 2.3).

Rewrites each check's range-expression into its *induction expression*:
a linear form over basic loop variables and loop-invariant atoms.  Two
program expressions that differ syntactically but share an induction
expression (``k`` accumulated by ``k = k + m`` vs. ``5*h + 8``) land in
the same family, enlarging equivalence classes.

A check whose induction polynomial is nonlinear keeps its PRX form --
exactly the paper's fallback ("range checks are created from either
program expressions ... or from induction expressions").

Rewritten checks that survive optimization must evaluate ``h`` at run
time, so the basic variables they mention are materialized as real SSA
variables.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.affine import AffineEnv
from ..errors import IRError
from ..induction.analysis import InductionAnalysis
from ..induction.materialize import BasicVarMaterializer
from ..ir.function import Function
from ..ir.instructions import Check
from ..ir.values import Var
from ..symbolic import LinearExpr, Polynomial
from .canonical import CanonicalCheck


def rewrite_checks_to_inx(function: Function, induction: InductionAnalysis,
                          env: AffineEnv,
                          materializer: BasicVarMaterializer) -> int:
    """Rewrite checks in place; returns the number rewritten."""
    rewritten = 0
    # each distinct range-expression is lifted once
    lifted: Dict[LinearExpr, Polynomial] = {}
    for block in list(function.blocks):
        for inst in list(block.instructions):
            if not isinstance(inst, Check) or inst.is_conditional:
                continue
            poly = lifted.get(inst.linexpr)
            if poly is None:
                poly = lifted[inst.linexpr] = \
                    induction.expr_of_linexpr(inst.linexpr)
            if _rewrite_one(inst, poly, induction, env, materializer):
                rewritten += 1
    return rewritten


def _rewrite_one(check: Check, poly: Polynomial,
                 induction: InductionAnalysis, env: AffineEnv,
                 materializer: BasicVarMaterializer) -> bool:
    """Rewrite ``check`` to ``poly``, its range-expression's induction
    expression, where that is linear and differs."""
    if not poly.is_linear():
        return False  # polynomial induction expression: keep the PRX form
    linear = poly.to_linear()
    if any(sym in induction.poly_marks for sym in linear.symbols()):
        # the expression rides on a polynomial recurrence (k += i); the
        # paper's INX construction keeps the program-expression form
        return False
    canonical = CanonicalCheck(linear, check.bound)
    if canonical.linexpr == check.linexpr and canonical.bound == check.bound:
        return False  # the induction expression is the program expression
    operands: Optional[Dict[str, Var]] = _operand_vars(
        canonical, induction, env, materializer)
    if operands is None:
        return False
    check.linexpr = canonical.linexpr
    check.bound = canonical.bound
    check.operands = operands
    return True


def _operand_vars(canonical: CanonicalCheck, induction: InductionAnalysis,
                  env: AffineEnv, materializer: BasicVarMaterializer
                  ) -> Optional[Dict[str, Var]]:
    operands: Dict[str, Var] = {}
    for sym in canonical.linexpr.symbols():
        loop = induction.loop_of_h(sym)
        if loop is not None:
            try:
                operands[sym] = materializer.var_for(loop)
            except IRError:
                return None
            continue
        var = env.var_for(sym)
        if var is None:
            return None
        operands[sym] = var
    return operands
