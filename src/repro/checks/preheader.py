"""Preheader insertion of checks: the LI and LLS schemes (section 3.3).

Loops are processed inner-to-outer.  For each loop, every check that is
anticipatable at the start of the loop body and whose range-expression
is *invariant* (LI) or *linear in the loop's index* (LLS, after
loop-limit substitution) is hoisted into the loop preheader as a
``Cond-check`` guarded by "the loop executes at least once".  When the
guard is a compile-time fact, an ordinary check is inserted instead.

Loop-limit substitution replaces the loop-varying symbol by the value
it takes at the iteration that maximizes the range-expression: the
paper's Figure 6 turns ``Check (j <= 10)`` inside ``do j = 1, 2*n``
into ``Cond-check ((1 <= 2*n), 2*n <= 10)`` in the preheader.

Hoisting cascades: a Cond-check sitting in an inner preheader is itself
a candidate when the enclosing loop is processed, provided its guards
are invariant and the inner preheader provably executes on every path
through the outer body; guards stack, one per hoisted-out-of loop.

The guard, the substitution and the preheader arithmetic it needs for
a non-unit step live in :class:`LoopLimits`, which SPEC's envelope
guards (``spec.py``) use too.

Each insertion registers an implication edge (the inserted check is as
strong as the body check it covers) and an *edge generation* fact on
the loop's header-to-body edge, which is where the guard is known true
-- the shared elimination pass then deletes the loop-body checks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.affine import AffineEnv
from ..analysis.loops import Loop, LoopForest
from ..induction.analysis import LoopIVs, h_symbol
from ..induction.tripcount import LoopIV
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import BinOp, Check, CondJump, Guard
from ..ir.types import INT, ScalarType
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr
from .canonical import CanonicalCheck, make_check, make_guard
from .cig import ImplicationStore
from .config import ImplicationMode
from .dataflow import CheckAnalysis, EdgeGen
from .family import ids_of


class _Sentinel:
    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: :meth:`LoopLimits.guard` results besides a check or None
NEVER_RUNS = _Sentinel("NEVER_RUNS")
UNPROVABLE = _Sentinel("UNPROVABLE")


class LoopLimits:
    """Loop-limit substitution (section 3.3) for one pass over one
    function; LI, LLS, MCM and SPEC all go through it.

    :meth:`guard` is the "loop executes at least once" condition,
    :meth:`substitute` replaces a check's loop-varying symbol by its
    value at the extreme iteration, and :meth:`materialize` emits the
    preheader arithmetic for a non-unit step's last index and trip
    count -- only for the checks that name them, and only when the
    caller commits to those checks.  Temps are ``<prefix><n>.<fn>``,
    numbered per instance.
    """

    #: placeholders :meth:`substitute` leaves for :meth:`materialize`
    _LAST = "limit.last"
    _TRIP = "limit.trip"

    def __init__(self, function: Function, env: AffineEnv,
                 prefix: str) -> None:
        self.function = function
        self.env = env
        self.prefix = prefix
        self._counter = 0
        self._vars: Dict[str, Var] = {}
        self._homes: Dict[str, BasicBlock] = {}

    # -- the trip >= 1 guard -------------------------------------------------

    def guard(self, loop: Loop, iv: Optional[LoopIV],
              fallback: Optional[Callable[[Loop],
                                          Optional[CanonicalCheck]]] = None):
        """The "executes at least once" condition as a CanonicalCheck,
        None when it is compile-time true, NEVER_RUNS, or UNPROVABLE
        when it is not evaluable in the preheader.  A loop without a
        counted ``iv`` takes its condition from ``fallback(loop)``."""
        if iv is not None:
            guard = CanonicalCheck.upper(*iv.guard_lhs_rhs())
        else:
            guard = fallback(loop) if fallback is not None else None
            if guard is None:
                return UNPROVABLE
        verdict = guard.evaluate_compile_time()
        if verdict is True:
            return None
        if verdict is False:
            return NEVER_RUNS
        return guard if self.evaluable(guard, loop) else UNPROVABLE

    # -- substitution --------------------------------------------------------

    def substitute(self, loop: Loop, iv: Optional[LoopIV],
                   check: CanonicalCheck) -> Optional[CanonicalCheck]:
        """``check`` with its loop-varying symbol replaced by the value
        at the iteration that maximizes the range-expression.  An
        invariant check comes back unchanged; None when the check does
        not vary in exactly ``iv``'s index or ``loop``'s basic variable
        (always, when ``iv`` is None)."""
        variant = [sym for sym in check.linexpr.symbols()
                   if self.defined_inside(sym, loop)]
        if not variant:
            return check
        if iv is None or len(variant) != 1:
            return None
        sym = variant[0]
        maximize = check.linexpr.coefficient(sym) > 0
        if sym == iv.var.name:
            extreme = self._index_extreme(iv, maximize)
        elif sym == h_symbol(loop):
            extreme = self._basic_var_extreme(iv, maximize)
        else:
            return None
        return CanonicalCheck(check.linexpr.substitute(sym, extreme),
                              check.bound)

    def _index_extreme(self, iv: LoopIV, maximize: bool) -> LinearExpr:
        """The first or last value of the loop index."""
        if (iv.step > 0) != maximize:
            return iv.init_affine
        if abs(iv.step) == 1:
            # a unit step runs the index exactly to the bound
            return iv.bound_affine
        return LinearExpr.symbol(self._LAST)

    def _basic_var_extreme(self, iv: LoopIV, maximize: bool) -> LinearExpr:
        """h ranges over 0 .. trip-1."""
        if not maximize:
            return LinearExpr.constant(0)
        if iv.step == 1:
            return iv.bound_affine - iv.init_affine
        if iv.step == -1:
            return iv.init_affine - iv.bound_affine
        return LinearExpr.symbol(self._TRIP) - 1

    # -- preheader arithmetic ------------------------------------------------

    def materialize(self, preheader: BasicBlock, iv: Optional[LoopIV],
                    checks: Sequence[CanonicalCheck]
                    ) -> List[CanonicalCheck]:
        """Emit into ``preheader`` the last index and trip count that
        ``checks`` name; returns the checks over the emitted temps.
        The arithmetic is safe (the step is a nonzero constant) and
        meaningful under the trip >= 1 guard."""
        needed = {sym for check in checks for sym in check.linexpr.symbols()}
        rename: Dict[str, str] = {}
        if self._LAST in needed:
            # last = init + ((bound - init) / step) * step
            bound = self._bound_value(preheader, iv)
            diff = self._emit(preheader, "sub", bound, iv.init_value)
            quot = self._emit(preheader, "div", diff, Const(iv.step))
            span = self._emit(preheader, "mul", quot, Const(iv.step))
            last = self._emit(preheader, "add", iv.init_value, span)
            rename[self._LAST] = last.name
        if self._TRIP in needed:
            # trip = (bound - init + step) / step
            bound = self._bound_value(preheader, iv)
            diff = self._emit(preheader, "sub", bound, iv.init_value)
            plus = self._emit(preheader, "add", diff, Const(iv.step))
            trip = self._emit(preheader, "div", plus, Const(iv.step))
            rename[self._TRIP] = trip.name
        return [CanonicalCheck(check.linexpr.rename(rename), check.bound)
                for check in checks]

    def _bound_value(self, preheader: BasicBlock, iv: LoopIV) -> Value:
        """The bound as a Value, adjusted for lt/gt normalization."""
        adjust = iv.bound_affine - self.env.form_of(iv.bound_value)
        if adjust.is_zero() or not adjust.is_constant():
            # a non-constant adjust cannot happen: both share symbols
            return iv.bound_value
        return self._emit(preheader, "add", iv.bound_value,
                          Const(adjust.const))

    def temp(self, type_: ScalarType) -> Var:
        """A fresh temp, declared in the function."""
        self._counter += 1
        dest = Var("%s%d.%s" % (self.prefix, self._counter,
                                self.function.name), type_, is_temp=True)
        self.function.declare_scalar(dest)
        return dest

    def _emit(self, preheader: BasicBlock, op: str, lhs: Value,
              rhs: Value) -> Var:
        dest = self.temp(INT)
        preheader.insert_before_terminator(BinOp(dest, op, lhs, rhs))
        self._vars[dest.name] = dest
        self._homes[dest.name] = preheader
        return dest

    # -- symbols -------------------------------------------------------------

    def defined_inside(self, sym: str, loop: Loop) -> bool:
        """True when ``sym`` is defined in ``loop``: an SSA name of one
        of its blocks, or a temp emitted into a preheader inside it."""
        block = self.env.def_block(sym)
        if block is None:
            block = self._homes.get(sym)
        return block is not None and block in loop.blocks

    def evaluable(self, check: CanonicalCheck, loop: Loop) -> bool:
        """True when every symbol of ``check`` has a value in ``loop``'s
        preheader (the placeholders get theirs from materialize)."""
        return all(sym in (self._LAST, self._TRIP) or
                   (not self.defined_inside(sym, loop) and
                    self._var(sym) is not None)
                   for sym in check.linexpr.symbols())

    def operands(self, check: CanonicalCheck) -> Optional[Dict[str, Var]]:
        """A Var for every symbol of ``check``, or None if one has none."""
        variables: Dict[str, Var] = {}
        for sym in check.linexpr.symbols():
            var = self._var(sym)
            if var is None:
                return None
            variables[sym] = var
        return variables

    def _var(self, sym: str) -> Optional[Var]:
        return self._vars.get(sym) or self.env.var_for(sym)


class PreheaderInserter:
    """Runs LI (``substitute_linear=False``) or LLS (``True``).

    ``ivs`` maps each loop of ``forest`` to its counted-loop
    description (:func:`repro.induction.analysis.loop_ivs`).
    """

    def __init__(self, analysis: CheckAnalysis, env: AffineEnv,
                 forest: LoopForest, ivs: LoopIVs,
                 store: ImplicationStore) -> None:
        self.analysis = analysis
        self.function = analysis.function
        self.env = env
        self.forest = forest
        self.ivs = ivs
        self.store = store
        self.limits = LoopLimits(self.function, env, "lls")
        self.edge_gen: EdgeGen = {}
        self.inserted = 0
        # cond-checks we placed, keyed by the preheader holding them
        self._hoisted: Dict[BasicBlock, List[Check]] = {}
        # per preheader: canonical -> (instruction, guard key set)
        self._placed: Dict[BasicBlock, Dict[CanonicalCheck, Tuple]] = {}

    # -- driver --------------------------------------------------------------

    def run(self, substitute_linear: bool) -> int:
        """Process all loops inner-to-outer; returns insertions made."""
        antin, _ = self.analysis.anticipatability()
        # SPEC slow-path clones must stay exactly as the NI scheme
        # would leave them: elimination only, never insertion
        slow_headers = getattr(self.function, "spec_slow_headers", ()) or ()
        for loop in self.forest.inner_to_outer():
            if loop.header.name in slow_headers:
                continue
            body_entry = self._body_entry(loop)
            if body_entry is None:
                continue
            guard = self.limits.guard(loop, self.ivs.get(loop),
                                      self._while_guard)
            if guard is NEVER_RUNS:
                continue
            preheader = self.forest.get_or_create_preheader(loop)
            self._hoist_body_checks(loop, body_entry, preheader, guard,
                                    antin[body_entry], substitute_linear)
            self._cascade_children(loop, body_entry, preheader, guard,
                                   substitute_linear)
        return self.inserted

    # -- loop structure ----------------------------------------------------------

    def _body_entry(self, loop: Loop) -> Optional[BasicBlock]:
        term = loop.header.terminator
        if not isinstance(term, CondJump):
            return None
        inside = [b for b in term.successors() if b in loop.blocks]
        outside = [b for b in term.successors() if b not in loop.blocks]
        if len(inside) == 1 and len(outside) == 1:
            return inside[0]
        return None

    def _while_guard(self, loop: Loop) -> Optional[CanonicalCheck]:
        """Derive a guard from a while-loop's comparison test."""
        header = loop.header
        term = header.terminator
        if not isinstance(term, CondJump) or not isinstance(term.cond, Var):
            return None
        cmp_inst = None
        for inst in header.instructions:
            if isinstance(inst, BinOp) and inst.dest == term.cond:
                cmp_inst = inst
        if cmp_inst is None or cmp_inst.op not in ("le", "lt", "ge", "gt"):
            return None
        body_entry = self._body_entry(loop)
        if body_entry is not term.if_true:
            return None  # loop continues on the false branch; skip
        try:
            lhs = self.env.form_of(cmp_inst.lhs)
            rhs = self.env.form_of(cmp_inst.rhs)
        except ValueError:
            return None
        if cmp_inst.op == "lt":
            rhs = rhs - 1
        elif cmp_inst.op == "gt":
            lhs = lhs - 1
        if cmp_inst.op in ("ge", "gt"):
            lhs, rhs = rhs, lhs
        return CanonicalCheck.upper(lhs, rhs)

    # -- hoisting ------------------------------------------------------------------

    def _loop_families(self, loop: Loop) -> Set[int]:
        """Families with at least one unconditional check inside the loop."""
        families: Set[int] = set()
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Check) and not inst.is_conditional:
                    check_id = self.analysis.id_of(inst)
                    if check_id is not None:
                        families.add(
                            self.analysis.universe.family_of[check_id])
        return families

    def _hoist_body_checks(self, loop: Loop, body_entry: BasicBlock,
                           preheader: BasicBlock, guard,
                           candidates, substitute_linear: bool) -> None:
        # Profitability: only hoist a check whose family actually occurs
        # inside the loop -- a check that is merely anticipatable via the
        # post-loop code would cost a Cond-check without removing
        # anything from the loop.
        loop_families = self._loop_families(loop)
        by_family: Dict[int, int] = {}
        for check_id in ids_of(candidates):
            family = self.analysis.universe.family_of[check_id]
            if family not in loop_families:
                continue
            bound = self.analysis.universe.check_of(check_id).bound
            best = by_family.get(family)
            if best is None or bound < \
                    self.analysis.universe.check_of(best).bound:
                by_family[family] = check_id
        for check_id in sorted(by_family.values()):
            canonical = self.analysis.universe.check_of(check_id)
            if canonical.is_compile_time():
                continue
            self._try_hoist(loop, body_entry, preheader, guard,
                            canonical, [], substitute_linear)

    def _try_hoist(self, loop: Loop, body_entry: BasicBlock,
                   preheader: BasicBlock, guard,
                   canonical: CanonicalCheck, inner_guards: List[Guard],
                   substitute_linear: bool,
                   original: Optional[Check] = None,
                   original_home: Optional[BasicBlock] = None,
                   gen_edge: Optional[Tuple[BasicBlock, BasicBlock]] = None
                   ) -> bool:
        """Attempt to place ``canonical`` (with ``inner_guards`` from
        already-hoisted-out-of loops) into ``preheader``."""
        if guard is UNPROVABLE:
            return False
        # LI hoists invariant checks only: no iv, no substitution
        iv = self.ivs.get(loop) if substitute_linear else None
        hoisted = self.limits.substitute(loop, iv, canonical)
        if hoisted is None:
            return False
        [hoisted] = self.limits.materialize(preheader, iv, [hoisted])

        if hoisted != canonical and \
                self.analysis.cig.mode is ImplicationMode.NONE:
            # Profitability under the no-implication ablation: a
            # loop-limit-substituted check lives in a different family,
            # and with implication reduced to identity it can never
            # imply the body check it covers -- inserting it would only
            # add dynamic checks on top of the surviving body check.
            return False

        guards = list(inner_guards)
        if guard is not None:
            guards.append(make_guard(guard, self.limits.operands(guard)))
        variables = self.limits.operands(hoisted)
        if variables is None:
            return False

        guard_keys = frozenset((g.linexpr, g.bound) for g in guards)
        placed = self._placed.setdefault(preheader, {})
        existing = placed.get(hoisted)
        if existing is not None and existing[1] <= guard_keys:
            pass  # an equal check under fewer (or equal) guards is there
        else:
            if existing is not None and guard_keys < existing[1]:
                # the new check subsumes the placed one: drop the old
                preheader.remove(existing[0])
                self._hoisted[preheader].remove(existing[0])
                self.inserted -= 1
            inst = make_check(hoisted, variables, kind="upper",
                              array="", guards=guards)
            preheader.insert_before_terminator(inst)
            placed[hoisted] = (inst, guard_keys)
            self._hoisted.setdefault(preheader, []).append(inst)
            self.inserted += 1
        # the inserted check implies the body check it came from
        if hoisted != canonical:
            self.store.add(hoisted, canonical)
        edge = gen_edge or (loop.header, body_entry)
        self.edge_gen.setdefault(edge, []).append(hoisted)
        if original is not None and original_home is not None:
            original_home.remove(original)
            self._hoisted[original_home].remove(original)
            self.inserted -= 1
        return True

    def _cascade_children(self, loop: Loop, body_entry: BasicBlock,
                          preheader: BasicBlock, guard,
                          substitute_linear: bool) -> None:
        """Re-hoist inner-loop Cond-checks out of ``loop``."""
        for child in loop.children:
            child_pre = self.forest.preheader(child)
            if child_pre is None or child_pre not in self._hoisted:
                continue
            if not self._always_reaches(body_entry, child_pre):
                continue
            child_entry = self._body_entry(child)
            if child_entry is None:
                continue
            for inst in list(self._hoisted[child_pre]):
                canonical = CanonicalCheck.of(inst)
                if any(self.limits.defined_inside(sym, loop)
                       for g in inst.guards
                       for sym in g.linexpr.symbols()):
                    continue
                self._try_hoist(
                    loop, body_entry, preheader, guard, canonical,
                    list(inst.guards), substitute_linear,
                    original=inst, original_home=child_pre,
                    gen_edge=(child.header, child_entry))

    def _always_reaches(self, start: BasicBlock, target: BasicBlock) -> bool:
        """True when every execution of ``start`` reaches ``target``:
        follow unique successors."""
        block = start
        for _ in range(len(self.function.blocks) + 1):
            if block is target:
                return True
            successors = block.successors()
            if len(successors) != 1:
                return False
            block = successors[0]
        return False
