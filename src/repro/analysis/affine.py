"""Affine value analysis over SSA form.

For every SSA variable this computes a :class:`LinearExpr` over *atomic*
SSA names -- names whose defining instruction is not an affine
combination (phis, loads, parameters, products of variables, ...).
Because SSA names are defined once, each form is valid at every point
the variable is in scope.

The range-check machinery leans on this in three places:

* trip-count analysis recognizes ``i = phi(init, i + c)`` patterns;
* loop-limit substitution (LLS) rewrites a check on a loop index into a
  check on the loop bound's affine form, reproducing the paper's
  ``Check (2*n <= 10)`` from Figure 6;
* INX-check construction maps program expressions to induction
  expressions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Assign, BinOp, UnOp
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr
from .dataflow import reverse_postorder


class AffineEnv:
    """The result of affine value analysis for one function."""

    def __init__(self) -> None:
        self.forms: Dict[str, LinearExpr] = {}
        self.vars: Dict[str, Var] = {}
        self.def_blocks: Dict[str, BasicBlock] = {}

    def form_of(self, value: Value) -> LinearExpr:
        """The affine form of a value (atomic fallback for unknowns)."""
        if isinstance(value, Const):
            if isinstance(value.value, int):
                return LinearExpr.constant(value.value)
            raise ValueError("no affine form for non-integer constant %r"
                             % (value,))
        assert isinstance(value, Var)
        return self.forms.get(value.name, LinearExpr.symbol(value.name))

    def var_for(self, name: str) -> Optional[Var]:
        """The Var object that defines (or first mentions) ``name``."""
        return self.vars.get(name)

    def def_block(self, name: str) -> Optional[BasicBlock]:
        """The block defining ``name`` (None for parameters)."""
        return self.def_blocks.get(name)

    def _note_var(self, var: Var) -> None:
        self.vars.setdefault(var.name, var)


def compute_affine_forms(function: Function) -> AffineEnv:
    """Run the analysis; expects (but does not require) SSA form.

    On non-SSA input the atomic fallback makes every result sound but
    trivial, so callers should run this after SSA construction.
    """
    env = AffineEnv()
    for param in function.params:
        env._note_var(param)
        env.forms[param.name] = LinearExpr.symbol(param.name)
    for block in reverse_postorder(function):
        for inst in block.instructions:
            for used in inst.uses():
                if isinstance(used, Var):
                    env._note_var(used)
            dest = inst.def_var()
            if dest is None:
                continue
            env._note_var(dest)
            env.def_blocks[dest.name] = block
            env.forms[dest.name] = _form_for(env, inst, dest)
    return env


def _form_for(env: AffineEnv, inst, dest: Var) -> LinearExpr:
    form = _affine_form(env, inst) if dest.type.value == "int" else None
    return form if form is not None else LinearExpr.symbol(dest.name)


def _affine_form(env: AffineEnv, inst) -> Optional[LinearExpr]:
    """The instruction's result as an affine form, or None when it is
    not an affine combination."""
    if isinstance(inst, Assign):
        return _value_form(env, inst.src)
    if isinstance(inst, UnOp) and inst.op == "neg":
        operand = _value_form(env, inst.operand)
        return -operand if operand is not None else None
    if isinstance(inst, BinOp):
        lhs = _value_form(env, inst.lhs)
        rhs = _value_form(env, inst.rhs)
        if lhs is None or rhs is None:
            return None
        if inst.op == "add":
            return lhs + rhs
        if inst.op == "sub":
            return lhs - rhs
        if inst.op == "mul":
            if lhs.is_constant():
                return rhs * lhs.const
            if rhs.is_constant():
                return lhs * rhs.const
    return None


def _value_form(env: AffineEnv, value: Value) -> Optional[LinearExpr]:
    if isinstance(value, Const):
        if isinstance(value.value, int):
            return LinearExpr.constant(value.value)
        return None
    if isinstance(value, Var):
        if value.type.value != "int":
            return None
        form = env.forms.get(value.name)
        return form if form is not None else LinearExpr.symbol(value.name)
    return None
