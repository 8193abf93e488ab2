"""SSA-based induction-variable analysis (section 2.3 of the paper).

Each loop is assigned a *basic loop variable* ``h`` that takes values
``0, 1, 2, ...`` per iteration.  Every SSA variable is associated with
an *induction expression*: a polynomial over basic loop variables and
opaque atoms, classified relative to a loop as

* ``INVARIANT`` -- mentions neither the loop's ``h`` nor anything
  defined inside the loop,
* ``LINEAR`` -- degree exactly one in the loop's ``h``,
* ``POLYNOMIAL`` -- higher degree, or a recurrence whose closed form
  needs rational coefficients (Figure 2's ``h*(h+1)/2``),
* ``UNKNOWN`` -- depends on something loop-variant and unclassifiable.

Follows the spirit of Gerlek/Stoltz/Wolfe (the paper's reference [7]):
strongly-connected recurrences through header phis are solved to closed
forms when the per-iteration delta is loop-invariant.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from ..analysis.affine import AffineEnv
from ..analysis.dataflow import reverse_postorder
from ..analysis.loops import Loop, LoopForest
from ..ir.function import Function
from ..ir.instructions import Assign, BinOp, Phi, UnOp
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr, Polynomial
from .tripcount import LoopIV, find_loop_iv


class IndKind(enum.Enum):
    """Classification of an induction expression relative to a loop."""

    INVARIANT = "invariant"
    LINEAR = "linear"
    POLYNOMIAL = "polynomial"
    UNKNOWN = "unknown"


#: each loop's counted-loop description, None for a loop that is not one
LoopIVs = Dict[Loop, Optional[LoopIV]]


def h_symbol(loop: Loop) -> str:
    """The canonical name of a loop's basic variable."""
    return "h.%s" % loop.header.name


def loop_ivs(function: Function, forest: LoopForest,
             env: AffineEnv) -> LoopIVs:
    """Match every loop of ``forest`` against the counted-do pattern
    (:func:`repro.induction.tripcount.find_loop_iv`).  This is all the
    preheader inserters and SPEC read; it solves no induction
    expression."""
    return {loop: find_loop_iv(function, loop, forest, env)
            for loop in forest.loops}


class InductionAnalysis:
    """Induction expressions for every SSA variable of one function."""

    def __init__(self, function: Function, forest: LoopForest,
                 env: AffineEnv) -> None:
        self.function = function
        self.forest = forest
        self.env = env
        self.exprs: Dict[str, Polynomial] = {}
        self.poly_marks: Set[str] = set()
        self._h_loops = {h_symbol(loop): loop for loop in forest.loops}
        self._solve()

    # -- solving -----------------------------------------------------------

    def _solve(self) -> None:
        blocks = reverse_postorder(self.function)
        max_passes = 2 + max((loop.depth for loop in self.forest.loops),
                             default=0)
        for _ in range(max_passes):
            changed = False
            for block in blocks:
                for inst in block.instructions:
                    dest = inst.def_var()
                    if dest is None:
                        continue
                    new = self._expr_for(inst, dest)
                    if self.exprs.get(dest.name) != new:
                        self.exprs[dest.name] = new
                        changed = True
            if not changed:
                break

    def _expr_for(self, inst, dest: Var) -> Polynomial:
        if dest.type.value != "int":
            # always atomic: a later pass reuses the recorded one
            recorded = self.exprs.get(dest.name)
            return recorded if recorded is not None \
                else Polynomial.symbol(dest.name)
        atomic = Polynomial.symbol(dest.name)
        if isinstance(inst, Phi):
            return self._phi_expr(inst, atomic)
        if isinstance(inst, Assign):
            return self._value_expr(inst.src, atomic)
        if isinstance(inst, UnOp) and inst.op == "neg":
            return -self._value_expr(inst.operand, atomic)
        if isinstance(inst, BinOp):
            if inst.op in ("add", "sub", "mul"):
                lhs = self._value_expr(inst.lhs, None)
                rhs = self._value_expr(inst.rhs, None)
                if lhs is None or rhs is None:
                    return atomic
                if inst.op == "add":
                    return lhs + rhs
                if inst.op == "sub":
                    return lhs - rhs
                return lhs * rhs
            if inst.op in ("div", "mod"):
                # no closed form with integer coefficients; remember that
                # the value is polynomial-driven (Figure 2: h*(h+1)/2)
                lhs = self._value_expr(inst.lhs, None)
                if lhs is not None and not self._is_atomic_only(lhs, dest):
                    self.poly_marks.add(dest.name)
                return atomic
        return atomic

    def _is_atomic_only(self, poly: Polynomial, dest: Var) -> bool:
        return not any(sym in self._h_loops or sym in self.poly_marks
                       for sym in poly.symbols())

    def _phi_expr(self, phi: Phi, atomic: Polynomial) -> Polynomial:
        block = phi.block
        loop = self.forest.loop_of_var_header(block) if block else None
        if loop is None:
            return atomic
        init_value = next_value = None
        for pred, value in phi.incoming:
            if pred in loop.blocks:
                if next_value is not None:
                    return atomic
                next_value = value
            else:
                if init_value is not None:
                    return atomic
                init_value = value
        if init_value is None or next_value is None:
            return atomic
        # recurrence: delta per iteration from the affine form of 'next'
        next_affine = self.env.form_of(next_value)
        if next_affine.coefficient(phi.dest.name) != 1:
            return atomic
        delta = next_affine - LinearExpr.symbol(phi.dest.name)
        inside = [sym for sym in delta.symbols()
                  if self._defined_inside(sym, loop)]
        if inside:
            # second-order recurrence (k += j with j an IV of this loop):
            # polynomial in h, but the closed form needs rationals
            if all(self.classify_symbol(sym, loop) in
                   (IndKind.LINEAR, IndKind.INVARIANT, IndKind.POLYNOMIAL)
                   for sym in inside):
                self.poly_marks.add(phi.dest.name)
            return atomic
        init_poly = self._lift_affine(self.env.form_of(init_value))
        delta_poly = self._lift_affine(delta)
        return init_poly + delta_poly * Polynomial.symbol(h_symbol(loop))

    def _lift_affine(self, expr: LinearExpr) -> Polynomial:
        total = Polynomial.constant(expr.const)
        for sym, coeff in expr.terms.items():
            total = total + self._symbol_expr(sym) * coeff
        return total

    def _value_expr(self, value: Value,
                    default: Optional[Polynomial]) -> Optional[Polynomial]:
        if isinstance(value, Const):
            if isinstance(value.value, int):
                return Polynomial.constant(value.value)
            return default
        assert isinstance(value, Var)
        if value.type.value != "int":
            return default
        return self._symbol_expr(value.name)

    def _symbol_expr(self, name: str) -> Polynomial:
        return self.exprs.get(name, Polynomial.symbol(name))

    # -- queries --------------------------------------------------------------

    def expr_of(self, name: str) -> Polynomial:
        """The induction expression of an SSA name (atomic fallback)."""
        return self._symbol_expr(name)

    def loop_of_h(self, sym: str) -> Optional[Loop]:
        """The loop whose basic variable is ``sym`` (None otherwise)."""
        return self._h_loops.get(sym)

    def expr_of_linexpr(self, linexpr: LinearExpr) -> Polynomial:
        """Induction expression of a linear combination of SSA names."""
        return self._lift_affine(linexpr)

    def _defined_inside(self, sym: str, loop: Loop) -> bool:
        if sym in self._h_loops:
            inner = self._h_loops[sym]
            # h of this loop or of a nested loop varies inside 'loop'
            node: Optional[Loop] = inner
            while node is not None:
                if node is loop:
                    return True
                node = node.parent
            return False
        block = self.env.def_block(sym)
        return block is not None and block in loop.blocks

    def classify_symbol(self, name: str, loop: Loop) -> IndKind:
        """Classify one SSA name relative to ``loop``."""
        return self.classify_poly(self._symbol_expr(name), loop)

    def classify_poly(self, poly: Polynomial, loop: Loop) -> IndKind:
        """Classify an induction polynomial relative to ``loop``."""
        h_name = h_symbol(loop)
        variant_atoms = []
        poly_atoms = []
        for sym in poly.symbols():
            if sym == h_name:
                continue
            if self._defined_inside(sym, loop):
                if sym in self.poly_marks:
                    poly_atoms.append(sym)
                else:
                    variant_atoms.append(sym)
        if variant_atoms:
            return IndKind.UNKNOWN
        if poly_atoms:
            return IndKind.POLYNOMIAL
        degree = poly.degree_in([h_name])
        if degree == 0:
            return IndKind.INVARIANT
        if degree == 1:
            return IndKind.LINEAR
        return IndKind.POLYNOMIAL
