"""Instructions of the repro IR.

The IR is a conventional three-address form over basic blocks, with two
unconventional members that the paper requires as first-class citizens:

* :class:`Check` -- a canonical range check ``Check(linexpr <= bound)``
  that traps when the inequality fails (section 2.2); a check may carry
  a *guard* (another canonical inequality), which makes it the paper's
  ``Cond-check`` used for preheader insertion (section 3.3);
* :class:`Trap` -- an unconditional trap, produced when a check is
  proven to always fail at compile time (step 5 of the algorithm).

Every instruction reports its used values and (at most one) defined
variable, so the SSA construction, dataflow analyses, and the check
optimizer can treat instructions uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import IRError
from ..symbolic import LinearExpr
from .types import BOOL, INT, REAL, ScalarType
from .values import Const, Value, Var

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock

# Binary operators.  Comparison and logical operators produce BOOL.
ARITH_OPS = frozenset({"add", "sub", "mul", "div", "mod", "min", "max"})
CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})
LOGIC_OPS = frozenset({"and", "or"})
BINARY_OPS = ARITH_OPS | CMP_OPS | LOGIC_OPS

# Unary operators.  ``itor``/``rtoi`` convert between int and real.
UNARY_OPS = frozenset({"neg", "not", "abs", "itor", "rtoi",
                       "sqrt", "exp", "log", "sin", "cos"})


class Instruction:
    """Base class of all IR instructions."""

    __slots__ = ("block",)
    is_terminator = False

    def __init__(self) -> None:
        self.block: Optional["BasicBlock"] = None

    def uses(self) -> List[Value]:
        """The values read by this instruction."""
        return []

    def def_var(self) -> Optional[Var]:
        """The variable defined by this instruction, if any."""
        return None

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        """Rewrite used variables according to ``mapping``."""

    def successors(self) -> List["BasicBlock"]:
        """Successor blocks (terminators only)."""
        return []


def _subst(value: Value, mapping: Mapping[Var, Value]) -> Value:
    if isinstance(value, Var) and value in mapping:
        return mapping[value]
    return value


class Assign(Instruction):
    """``dest = src`` (a scalar copy).

    ``is_phi_copy`` marks copies that SSA destruction synthesized from
    phi nodes.  Both execution engines count such copies as ``phis``
    (not ``instructions``), so the dynamic instruction counts of a
    destructed module match the SSA module it came from exactly —
    that's what makes ``tables --engine compiled`` byte-identical to
    the interpreter's output.
    """

    __slots__ = ("dest", "src", "is_phi_copy")

    def __init__(self, dest: Var, src: Value,
                 is_phi_copy: bool = False) -> None:
        super().__init__()
        self.dest = dest
        self.src = src
        self.is_phi_copy = is_phi_copy

    def uses(self) -> List[Value]:
        return [self.src]

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.src = _subst(self.src, mapping)

    def __str__(self) -> str:
        return "%s = %s" % (self.dest, self.src)


class BinOp(Instruction):
    """``dest = lhs <op> rhs``."""

    __slots__ = ("dest", "op", "lhs", "rhs")

    def __init__(self, dest: Var, op: str, lhs: Value, rhs: Value) -> None:
        super().__init__()
        if op not in BINARY_OPS:
            raise IRError("unknown binary operator %r" % op)
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)

    def __str__(self) -> str:
        return "%s = %s %s %s" % (self.dest, self.lhs, self.op, self.rhs)


class UnOp(Instruction):
    """``dest = <op> operand``."""

    __slots__ = ("dest", "op", "operand")

    def __init__(self, dest: Var, op: str, operand: Value) -> None:
        super().__init__()
        if op not in UNARY_OPS:
            raise IRError("unknown unary operator %r" % op)
        self.dest = dest
        self.op = op
        self.operand = operand

    def uses(self) -> List[Value]:
        return [self.operand]

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.operand = _subst(self.operand, mapping)

    def __str__(self) -> str:
        return "%s = %s %s" % (self.dest, self.op, self.operand)


class Load(Instruction):
    """``dest = array[indices...]``."""

    __slots__ = ("dest", "array", "indices")

    def __init__(self, dest: Var, array: str, indices: Sequence[Value]) -> None:
        super().__init__()
        self.dest = dest
        self.array = array
        self.indices = list(indices)

    def uses(self) -> List[Value]:
        return list(self.indices)

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.indices = [_subst(v, mapping) for v in self.indices]

    def __str__(self) -> str:
        return "%s = %s[%s]" % (
            self.dest, self.array, ", ".join(str(i) for i in self.indices))


class Store(Instruction):
    """``array[indices...] = src``."""

    __slots__ = ("array", "indices", "src")

    def __init__(self, array: str, indices: Sequence[Value], src: Value) -> None:
        super().__init__()
        self.array = array
        self.indices = list(indices)
        self.src = src

    def uses(self) -> List[Value]:
        return list(self.indices) + [self.src]

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.indices = [_subst(v, mapping) for v in self.indices]
        self.src = _subst(self.src, mapping)

    def __str__(self) -> str:
        return "%s[%s] = %s" % (
            self.array, ", ".join(str(i) for i in self.indices), self.src)


class Phi(Instruction):
    """SSA phi node: ``dest = phi(block1: v1, block2: v2, ...)``."""

    __slots__ = ("dest", "incoming")

    def __init__(self, dest: Var,
                 incoming: Optional[List[Tuple["BasicBlock", Value]]] = None) -> None:
        super().__init__()
        self.dest = dest
        self.incoming: List[Tuple["BasicBlock", Value]] = list(incoming or [])

    def uses(self) -> List[Value]:
        return [value for _, value in self.incoming]

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.incoming = [(blk, _subst(v, mapping)) for blk, v in self.incoming]

    def value_for(self, block: "BasicBlock") -> Value:
        """The incoming value for predecessor ``block``."""
        for blk, value in self.incoming:
            if blk is block:
                return value
        raise IRError("phi %s has no incoming value for block %s"
                      % (self.dest, block.name))

    def set_value_for(self, block: "BasicBlock", value: Value) -> None:
        """Replace (or add) the incoming value for ``block``."""
        for idx, (blk, _) in enumerate(self.incoming):
            if blk is block:
                self.incoming[idx] = (blk, value)
                return
        self.incoming.append((block, value))

    def __str__(self) -> str:
        args = ", ".join("%s: %s" % (blk.name, value)
                         for blk, value in self.incoming)
        return "%s = phi(%s)" % (self.dest, args)


class Guard:
    """One guard inequality ``linexpr <= bound`` of a Cond-check."""

    __slots__ = ("linexpr", "bound", "operands")

    def __init__(self, linexpr: LinearExpr, bound: int,
                 operands: Mapping[str, Var]) -> None:
        self.linexpr = linexpr
        self.bound = bound
        self.operands: Dict[str, Var] = dict(operands)

    def __str__(self) -> str:
        return "(%s <= %d)" % (self.linexpr, self.bound)


class Check(Instruction):
    """A canonical range check: trap unless ``linexpr <= bound`` holds.

    ``linexpr`` is a :class:`LinearExpr` whose symbols are IR variable
    names; ``operands`` maps each symbol to the :class:`Var` carrying
    its run-time value.  ``bound`` is the folded *range-constant*.

    When ``guards`` is non-empty the instruction is the paper's
    ``Cond-check((g1), (g2), ..., linexpr <= bound)``: the check is
    performed only when every guard inequality holds.  A single guard
    typically encodes "the loop executes at least once"; hoisting a
    check out of a nest of loops stacks one guard per loop.

    ``context`` carries call-site provenance for checks the inliner
    cloned out of a subroutine body (e.g. ``"in f, inlined at line
    12"``); trap messages append it so a failure names the callee and
    call line rather than the clone's synthetic block label.
    """

    __slots__ = ("linexpr", "bound", "operands", "kind", "array", "guards",
                 "context")

    def __init__(self, linexpr: LinearExpr, bound: int,
                 operands: Mapping[str, Var], kind: str = "upper",
                 array: str = "",
                 guards: Optional[Sequence[Guard]] = None,
                 context: str = "") -> None:
        super().__init__()
        if kind not in ("lower", "upper"):
            raise IRError("check kind must be 'lower' or 'upper'")
        self.linexpr = linexpr
        self.bound = bound
        self.operands: Dict[str, Var] = dict(operands)
        self.kind = kind
        self.array = array
        self.guards: List[Guard] = list(guards or [])
        self.context = context
        self._validate()

    def _validate(self) -> None:
        missing = set(self.linexpr.symbols()) - set(self.operands)
        if missing:
            raise IRError("check %s missing operands for %s"
                          % (self, sorted(missing)))
        for guard in self.guards:
            gmissing = set(guard.linexpr.symbols()) - set(guard.operands)
            if gmissing:
                raise IRError("check guard %s missing operands for %s"
                              % (self, sorted(gmissing)))

    @property
    def is_conditional(self) -> bool:
        """True for a ``Cond-check`` (guarded check)."""
        return bool(self.guards)

    def uses(self) -> List[Value]:
        used: List[Value] = [self.operands[s] for s in self.linexpr.symbols()]
        for guard in self.guards:
            used.extend(guard.operands[s] for s in guard.linexpr.symbols())
        return used

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.linexpr, self.bound, self.operands = _rewrite_linear(
            self.linexpr, self.bound, self.operands, mapping)
        for guard in self.guards:
            guard.linexpr, guard.bound, guard.operands = _rewrite_linear(
                guard.linexpr, guard.bound, guard.operands, mapping)

    def __str__(self) -> str:
        body = "check (%s <= %d)" % (self.linexpr, self.bound)
        if self.array:
            body += " !%s.%s" % (self.array, self.kind)
        # context is part of the printed form on purpose: back-end trap
        # messages embed it, so it must reach the BackendCache
        # fingerprint (which hashes the printed IR)
        if self.context:
            body += " @<%s>" % self.context
        if self.guards:
            conds = " and ".join(str(g) for g in self.guards)
            return "cond-%s if %s" % (body, conds)
        return body


def _rewrite_linear(linexpr: LinearExpr, bound: int,
                    operands: Mapping[str, Var],
                    mapping: Mapping[Var, Value]):
    """Apply a Var->Value substitution to a canonical inequality.

    Var->Var substitutions rename symbols; Var->Const substitutions fold
    the constant into the bound (keeping the canonical form).
    """
    new_expr = linexpr
    new_operands: Dict[str, Var] = {}
    for sym in linexpr.symbols():
        var = operands[sym]
        replacement = mapping.get(var, var)
        if isinstance(replacement, Const):
            if not isinstance(replacement.value, int):
                raise IRError("cannot fold non-integer constant into check")
            new_expr = new_expr.substitute(sym, replacement.value)
        elif isinstance(replacement, Var):
            if replacement.name != sym:
                new_expr = new_expr.rename({sym: replacement.name})
            new_operands[replacement.name] = replacement
        else:
            raise IRError("unsupported check operand substitution %r"
                          % (replacement,))
    new_bound = bound - new_expr.const
    new_expr = new_expr.drop_const()
    kept = {s: new_operands[s] for s in new_expr.symbols() if s in new_operands}
    return new_expr, new_bound, kept


class SpecGuard(Instruction):
    """Speculative envelope guard of the SPEC placement scheme.

    Sits in the preheader of a versioned loop and defines the BOOL
    that dispatches between the unchecked fast clone and the fully
    checked slow clone:

    * ``pre_guards`` encode "the loop executes at least once".  When
      any of them fails, ``dest`` is True (take the fast path -- the
      loop exits immediately, so skipping its checks is trivially
      safe) and **no** counters are touched.
    * otherwise the run charges one ``spec_guards`` evaluation, and
      ``dest`` is True iff every envelope inequality in ``guards``
      holds.  A failing envelope charges one ``spec_misses`` and sends
      execution down the slow path -- it never traps.

    By construction ``spec_misses`` equals the number of slow-path
    entries, which is what the fuzz oracle's "slow path fires iff the
    envelope guard fails" invariant leans on.  Guard evaluations are
    deliberately *not* counted as ``checks``: the envelope may fail on
    a run whose baseline executed zero checks, and the no-extra-work
    invariant compares effective checks against the naive baseline.
    """

    __slots__ = ("dest", "pre_guards", "guards")

    def __init__(self, dest: Var, pre_guards: Sequence[Guard],
                 guards: Sequence[Guard]) -> None:
        super().__init__()
        self.dest = dest
        self.pre_guards: List[Guard] = list(pre_guards)
        self.guards: List[Guard] = list(guards)
        self._validate()

    def _validate(self) -> None:
        for guard in list(self.pre_guards) + list(self.guards):
            missing = set(guard.linexpr.symbols()) - set(guard.operands)
            if missing:
                raise IRError("spec-guard %s missing operands for %s"
                              % (self, sorted(missing)))

    def uses(self) -> List[Value]:
        used: List[Value] = []
        for guard in list(self.pre_guards) + list(self.guards):
            used.extend(guard.operands[s] for s in guard.linexpr.symbols())
        return used

    def def_var(self) -> Optional[Var]:
        return self.dest

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        for guard in list(self.pre_guards) + list(self.guards):
            guard.linexpr, guard.bound, guard.operands = _rewrite_linear(
                guard.linexpr, guard.bound, guard.operands, mapping)

    def __str__(self) -> str:
        # The printed form feeds the BackendCache fingerprint: every
        # semantically relevant field (pre-guards, envelope bounds)
        # must appear here, or two different guards would share a key.
        pre = " and ".join(str(g) for g in self.pre_guards) or "()"
        env = " and ".join(str(g) for g in self.guards) or "()"
        return "%s = spec-guard pre %s env %s" % (self.dest, pre, env)


class Trap(Instruction):
    """Unconditional trap: a check proven false at compile time."""

    __slots__ = ("message",)

    def __init__(self, message: str = "range check failed") -> None:
        super().__init__()
        self.message = message

    def __str__(self) -> str:
        return "trap %r" % self.message


class Call(Instruction):
    """Call a subroutine: scalars by value, arrays by reference (name).

    ``array_args`` lists caller array names bound positionally to the
    callee's array parameters.  ``line`` is the source line of the call
    statement (0 when synthesized); the inliner stamps it into the
    ``context`` of every check it clones so trap messages can name the
    call site.
    """

    __slots__ = ("callee", "args", "array_args", "line")

    def __init__(self, callee: str, args: Sequence[Value],
                 array_args: Sequence[str] = (), line: int = 0) -> None:
        super().__init__()
        self.callee = callee
        self.args = list(args)
        self.array_args = list(array_args)
        self.line = line

    def uses(self) -> List[Value]:
        return list(self.args)

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.args = [_subst(v, mapping) for v in self.args]

    def __str__(self) -> str:
        parts = [str(a) for a in self.args]
        parts.extend("&%s" % a for a in self.array_args)
        return "call %s(%s)" % (self.callee, ", ".join(parts))


class Print(Instruction):
    """Emit a value to the program's output stream (for examples/tests)."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> List[Value]:
        return [self.value]

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.value = _subst(self.value, mapping)

    def __str__(self) -> str:
        return "print %s" % self.value


class Jump(Instruction):
    """Unconditional branch.

    ``is_synthetic`` marks jumps of blocks that SSA destruction created
    by splitting critical edges; like phi copies, they are free in the
    dynamic instruction count (the SSA module being measured has no
    such block, so charging for it would skew engine parity).
    """

    __slots__ = ("target", "is_synthetic")
    is_terminator = True

    def __init__(self, target: "BasicBlock",
                 is_synthetic: bool = False) -> None:
        super().__init__()
        self.target = target
        self.is_synthetic = is_synthetic

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def __str__(self) -> str:
        return "jump %s" % self.target.name


class CondJump(Instruction):
    """Two-way conditional branch on a BOOL value."""

    __slots__ = ("cond", "if_true", "if_false")
    is_terminator = True

    def __init__(self, cond: Value, if_true: "BasicBlock",
                 if_false: "BasicBlock") -> None:
        super().__init__()
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def uses(self) -> List[Value]:
        return [self.cond]

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        self.cond = _subst(self.cond, mapping)

    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]

    def __str__(self) -> str:
        return "if %s jump %s else %s" % (
            self.cond, self.if_true.name, self.if_false.name)


class Return(Instruction):
    """Return from the current function."""

    __slots__ = ("value",)
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> List[Value]:
        return [self.value] if self.value is not None else []

    def replace_uses(self, mapping: Mapping[Var, Value]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)

    def __str__(self) -> str:
        return "return" if self.value is None else "return %s" % self.value


def clone_instruction(inst: Instruction,
                      rename: Optional[Mapping[Var, Value]] = None,
                      block_map: Optional[Mapping["BasicBlock",
                                                  "BasicBlock"]] = None
                      ) -> Instruction:
    """A detached structural copy of ``inst``.  ``rename`` substitutes
    variables (definitions included) and ``block_map`` remaps branch
    targets and phi incoming blocks; both keep what they do not map."""
    rename = rename or {}
    block_map = block_map or {}
    sub = lambda value: _subst(value, rename)
    blk = lambda block: block_map.get(block, block)
    if isinstance(inst, Phi):
        return Phi(sub(inst.dest),
                   [(blk(b), sub(v)) for b, v in inst.incoming])
    if isinstance(inst, Assign):
        return Assign(sub(inst.dest), sub(inst.src), inst.is_phi_copy)
    if isinstance(inst, BinOp):
        return BinOp(sub(inst.dest), inst.op, sub(inst.lhs), sub(inst.rhs))
    if isinstance(inst, UnOp):
        return UnOp(sub(inst.dest), inst.op, sub(inst.operand))
    if isinstance(inst, Load):
        return Load(sub(inst.dest), inst.array,
                    [sub(i) for i in inst.indices])
    if isinstance(inst, Store):
        return Store(inst.array, [sub(i) for i in inst.indices],
                     sub(inst.src))
    if isinstance(inst, Check):
        clone = Check(inst.linexpr, inst.bound, dict(inst.operands),
                      inst.kind, inst.array,
                      [Guard(g.linexpr, g.bound, dict(g.operands))
                       for g in inst.guards], inst.context)
        clone.replace_uses(rename)
        return clone
    if isinstance(inst, Call):
        return Call(inst.callee, [sub(a) for a in inst.args],
                    list(inst.array_args), inst.line)
    if isinstance(inst, Print):
        return Print(sub(inst.value))
    if isinstance(inst, Trap):
        return Trap(inst.message)
    if isinstance(inst, Jump):
        return Jump(blk(inst.target), inst.is_synthetic)
    if isinstance(inst, CondJump):
        return CondJump(sub(inst.cond), blk(inst.if_true),
                        blk(inst.if_false))
    if isinstance(inst, Return):
        return Return(sub(inst.value) if inst.value is not None else None)
    raise TypeError("cannot clone %r" % inst)


def result_type(op: str, lhs: ScalarType, rhs: ScalarType) -> ScalarType:
    """The result type of binary operator ``op`` on the given types."""
    if op in CMP_OPS or op in LOGIC_OPS:
        return BOOL
    if REAL in (lhs, rhs):
        return REAL
    return INT
