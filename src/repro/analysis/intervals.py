"""Interval (value-range) analysis over SSA integers.

An abstract interpretation in the style the paper's related-work
section attributes to Harrison and to Cousot & Halbwachs: every integer
SSA value gets a conservative interval ``[lo, hi]`` (with infinities),
computed by forward propagation with widening at loop headers and
branch refinement on conditional edges.

This is the substrate of the ``VR`` baseline scheme: a range check
whose range-expression's interval fits under the range-constant is
compile-time redundant -- no insertion, no PRE, exactly the class of
algorithm the paper predicts "the number of checks eliminated ... to be
less than algorithms which insert checks".
"""

from __future__ import annotations

from typing import Dict

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Assign, BinOp, CondJump, Phi, UnOp
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr
from .dataflow import reverse_postorder

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = float  # an int, or +-inf


class Interval:
    """An inclusive integer interval; immutable."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Bound, hi: Bound) -> None:
        self.lo = lo
        self.hi = hi

    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def constant(value: int) -> "Interval":
        return Interval(value, value)

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard widening: unstable bounds jump to infinity."""
        lo = self.lo if other.lo >= self.lo else NEG_INF
        hi = self.hi if other.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def clamp_upper(self, bound: Bound) -> "Interval":
        return Interval(self.lo, min(self.hi, bound))

    def clamp_lower(self, bound: Bound) -> "Interval":
        return Interval(max(self.lo, bound), self.hi)

    # -- arithmetic ------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        products = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                value = _mul(a, b)
                products.append(value)
        return Interval(min(products), max(products))

    def scale(self, factor: int) -> "Interval":
        if factor >= 0:
            return Interval(_mul(self.lo, factor), _mul(self.hi, factor))
        return Interval(_mul(self.hi, factor), _mul(self.lo, factor))

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def abs_value(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return self.neg()
        return Interval(0, max(self.hi, -self.lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        lo = "-inf" if self.lo == NEG_INF else str(int(self.lo))
        hi = "+inf" if self.hi == POS_INF else str(int(self.hi))
        return "[%s, %s]" % (lo, hi)


_TOP = Interval(NEG_INF, POS_INF)


def _mul(a: Bound, b: Bound) -> Bound:
    if a == 0 or b == 0:
        return 0
    return a * b


Env = Dict[str, Interval]

_WIDEN_AFTER = 3


class IntervalAnalysis:
    """Per-block-entry interval environments for one SSA function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.rpo = reverse_postorder(function)
        self.preds = function.predecessor_map()
        self.entry_env: Dict[BasicBlock, Env] = {}
        self._visits: Dict[BasicBlock, int] = {}
        self._headers = self._loop_headers()
        self._cmp_defs: Dict[str, BinOp] = {}
        for inst in function.instructions():
            if isinstance(inst, BinOp) and \
                    inst.op in ("lt", "le", "gt", "ge", "eq"):
                self._cmp_defs[inst.dest.name] = inst
        self._solve()

    # -- structure -----------------------------------------------------------

    def _loop_headers(self):
        """Loop headers mapped to the names defined inside their loop.

        Widening applies only to names the loop itself redefines; a
        value merely passed through a nested loop must keep joining
        normally, or a transient growth (propagation lag from an outer
        loop) would be frozen at infinity with no way to narrow.
        """
        from .loops import LoopForest

        forest = LoopForest(self.function)
        headers: Dict[BasicBlock, set] = {}
        for loop in forest.loops:
            defined = set()
            for block in loop.blocks:
                for inst in block.instructions:
                    dest = inst.def_var()
                    if dest is not None:
                        defined.add(dest.name)
            headers[loop.header] = defined
        return headers

    # -- fixpoint ---------------------------------------------------------------

    def _solve(self) -> None:
        entry = self.function.entry
        self.entry_env[entry] = {}
        worklist = list(self.rpo)
        iterations = 0
        limit = 40 * max(1, len(self.rpo))
        while worklist and iterations < limit:
            iterations += 1
            block = worklist.pop(0)
            env = self._incoming_env(block)
            if block in self.entry_env and env == self.entry_env[block]:
                continue
            if block in self._headers:
                count = self._visits.get(block, 0) + 1
                self._visits[block] = count
                if count > _WIDEN_AFTER and block in self.entry_env:
                    env = _widen_env(self.entry_env[block], env,
                                     self._headers[block])
            self.entry_env[block] = env
            for succ in block.successors():
                if succ not in worklist:
                    worklist.append(succ)
        if iterations >= limit:
            # did not converge: discard everything rather than risk an
            # unsound under-approximation
            self.entry_env = {block: {} for block in self.rpo}
            return
        # narrowing: a bounded decreasing iteration recovers precision
        # that widening overshot (e.g. a loop bound reachable only via
        # the branch refinement on the header's taken edge)
        for _ in range(2):
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                env = self._incoming_env(block)
                if env != self.entry_env.get(block):
                    self.entry_env[block] = env
                    changed = True
            if not changed:
                break

    def _incoming_env(self, block: BasicBlock) -> Env:
        if block is self.function.entry:
            return {}
        pieces = []
        for pred in self.preds[block]:
            if pred not in self.entry_env:
                continue
            out = self._flow_through(pred, self.entry_env[pred], block)
            pieces.append(out)
        if not pieces:
            return {}
        merged = dict(pieces[0])
        for env in pieces[1:]:
            for name in list(merged):
                if name in env:
                    merged[name] = merged[name].join(env[name])
                else:
                    del merged[name]
        return merged

    def _flow_through(self, block: BasicBlock, entry: Env,
                      target: BasicBlock) -> Env:
        env = dict(entry)
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue  # handled at the target's merge below
            dest = inst.def_var()
            if dest is not None and dest.type.value == "int":
                env[dest.name] = self._evaluate(inst, env)
        term = block.terminator
        if isinstance(term, CondJump) and isinstance(term.cond, Var):
            cmp_inst = self._cmp_defs.get(term.cond.name)
            if cmp_inst is not None:
                taken = target is term.if_true
                env = _refine(env, cmp_inst, taken)
        # phi results for the target, computed from this edge's values
        for phi in target.phis():
            if phi.dest.type.value != "int":
                continue
            value = phi.value_for(block)
            env[phi.dest.name] = self._value_interval(value, env)
        return env

    # -- transfer -------------------------------------------------------------

    def _value_interval(self, value: Value, env: Env) -> Interval:
        if isinstance(value, Const):
            if isinstance(value.value, int) and \
                    not isinstance(value.value, bool):
                return Interval.constant(value.value)
            return Interval.top()
        assert isinstance(value, Var)
        return env.get(value.name, Interval.top())

    def _evaluate(self, inst, env: Env) -> Interval:
        if isinstance(inst, Assign):
            return self._value_interval(inst.src, env)
        if isinstance(inst, UnOp):
            operand = self._value_interval(inst.operand, env)
            if inst.op == "neg":
                return operand.neg()
            if inst.op == "abs":
                return operand.abs_value()
            return Interval.top()
        if isinstance(inst, BinOp):
            lhs = self._value_interval(inst.lhs, env)
            rhs = self._value_interval(inst.rhs, env)
            if inst.op == "add":
                return lhs.add(rhs)
            if inst.op == "sub":
                return lhs.sub(rhs)
            if inst.op == "mul":
                return lhs.mul(rhs)
            if inst.op == "min":
                return lhs.min_with(rhs)
            if inst.op == "max":
                return lhs.max_with(rhs)
            if inst.op == "mod" and rhs.lo == rhs.hi and rhs.lo not in (
                    0, NEG_INF, POS_INF):
                modulus = abs(int(rhs.lo))
                if lhs.lo >= 0:
                    return Interval(0, modulus - 1)
                return Interval(-(modulus - 1), modulus - 1)
        return Interval.top()

    # -- queries -----------------------------------------------------------------

    def env_at(self, block: BasicBlock) -> Env:
        """The interval environment at block entry (after phis)."""
        return self.entry_env.get(block, {})

    def interval_at(self, block: BasicBlock, index: int,
                    name: str) -> Interval:
        """The interval of ``name`` just before instruction ``index``."""
        env = dict(self.env_at(block))
        for inst in block.instructions[:index]:
            if isinstance(inst, Phi):
                continue
            dest = inst.def_var()
            if dest is not None and dest.type.value == "int":
                env[dest.name] = self._evaluate(inst, env)
        return env.get(name, Interval.top())

    def linexpr_interval(self, block: BasicBlock, index: int,
                         linexpr: LinearExpr) -> Interval:
        """The interval of a linear expression before instruction
        ``index`` of ``block``."""
        total = Interval.constant(linexpr.const)
        for sym, coeff in linexpr.terms.items():
            total = total.add(self.interval_at(block, index, sym)
                              .scale(coeff))
        return total


def _widen_env(old: Env, new: Env, loop_defined) -> Env:
    widened: Env = {}
    for name, interval in new.items():
        if name in old and name in loop_defined:
            widened[name] = old[name].widen(interval)
        else:
            widened[name] = interval
    return widened


def _refine(env: Env, cmp_inst: BinOp, taken: bool) -> Env:
    """Narrow the operand intervals using a branch comparison."""
    op = cmp_inst.op
    if not taken:
        flipped = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt"}
        if op == "eq":
            return env  # != gives no interval information
        op = flipped[op]
    refined = dict(env)

    def get(value: Value) -> Interval:
        if isinstance(value, Const) and isinstance(value.value, int) and \
                not isinstance(value.value, bool):
            return Interval.constant(value.value)
        if isinstance(value, Var):
            return env.get(value.name, Interval.top())
        return Interval.top()

    def set_var(value: Value, interval: Interval) -> None:
        if isinstance(value, Var) and not interval.is_empty():
            refined[value.name] = interval

    lhs, rhs = cmp_inst.lhs, cmp_inst.rhs
    lhs_iv, rhs_iv = get(lhs), get(rhs)
    if op == "lt":
        set_var(lhs, lhs_iv.clamp_upper(rhs_iv.hi - 1))
        set_var(rhs, rhs_iv.clamp_lower(lhs_iv.lo + 1))
    elif op == "le":
        set_var(lhs, lhs_iv.clamp_upper(rhs_iv.hi))
        set_var(rhs, rhs_iv.clamp_lower(lhs_iv.lo))
    elif op == "gt":
        set_var(lhs, lhs_iv.clamp_lower(rhs_iv.lo + 1))
        set_var(rhs, rhs_iv.clamp_upper(lhs_iv.hi - 1))
    elif op == "ge":
        set_var(lhs, lhs_iv.clamp_lower(rhs_iv.lo))
        set_var(rhs, rhs_iv.clamp_upper(lhs_iv.hi))
    elif op == "eq":
        meet = Interval(max(lhs_iv.lo, rhs_iv.lo),
                        min(lhs_iv.hi, rhs_iv.hi))
        set_var(lhs, meet)
        set_var(rhs, meet)
    return refined
