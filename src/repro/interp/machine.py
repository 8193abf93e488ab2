"""The IR interpreter.

Executes a module (SSA or non-SSA form) with instrumented counting.
Plays the role of the paper's instrumented C back-end: "the C back-end
of Nascent translates Fortran programs into instrumented C programs
which are then compiled and executed ... to obtain the dynamic counts
of instructions" (section 4).

Phi nodes are evaluated edge-sensitively and *simultaneously* on block
entry, so SSA programs run directly, without destruction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Union

from ..errors import (BoundsAuditError, CallDepthError, InterpError,
                      RangeTrap, StepLimitError)
from ..ir.basicblock import BasicBlock
from ..ir.function import Function, Module
from ..ir.instructions import (Assign, BinOp, Call, Check, CondJump, Jump,
                               Load, Phi, Print, Return, SpecGuard, Store,
                               Trap, UnOp)
from ..ir.types import REAL
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr
from .counters import ExecutionCounters
from .values import ArrayStorage

Number = Union[int, float, bool]


class _Frame:
    __slots__ = ("function", "scalars", "arrays")

    def __init__(self, function: Function) -> None:
        self.function = function
        self.scalars: Dict[str, Number] = {}
        self.arrays: Dict[str, ArrayStorage] = {}


class Machine:
    """Executes one module with the given main-program inputs."""

    MAX_CALL_DEPTH = 200

    def __init__(self, module: Module,
                 inputs: Optional[Mapping[str, Number]] = None,
                 max_steps: int = 50_000_000,
                 bounds_audit: bool = False,
                 collect_edges: bool = False) -> None:
        if module.main is None:
            raise InterpError("module has no main program")
        self.module = module
        self.inputs = dict(inputs or {})
        self.max_steps = max_steps
        self.counters = ExecutionCounters()
        self.output: List[Number] = []
        self._steps = 0
        self._depth = 0
        # per-edge execution counts (the lospre training profile);
        # None keeps the dispatch loop branch-free on the default path
        self._edges = self.counters.enable_edge_collection() \
            if collect_edges else None
        # the fuzz oracle's safety net: audit every array access against
        # the declared bounds, independently of emitted Check
        # instructions, and raise BoundsAuditError the moment an access
        # escapes range checking
        self.bounds_audit = bounds_audit

    # -- public API --------------------------------------------------------

    def run(self) -> ExecutionCounters:
        """Execute the main program; returns the counters."""
        main = self.module.main
        frame = _Frame(main)
        for param in main.params:
            default = main.input_defaults.get(param.name, 0)
            value = self.inputs.get(param.name, default)
            frame.scalars[param.name] = (float(value)
                                         if param.type is REAL
                                         else int(value))
        self._materialize_arrays(frame)
        try:
            self._run_function(frame)
        except RangeTrap as trap:
            # parity with the back-end runtimes: a trap carries the
            # machine state at the instant it fired (counters, partial
            # output, collected edges), so accounting survives the trap
            # on every engine
            trap.runtime = self
            raise
        return self.counters

    # -- frames -------------------------------------------------------------

    def _materialize_arrays(self, frame: _Frame) -> None:
        for name, atype in frame.function.arrays.items():
            if name in frame.arrays:  # array parameter, already bound
                continue
            bounds = []
            for dim in atype.dims:
                low = self._eval_linear(frame, dim.lower)
                high = self._eval_linear(frame, dim.upper)
                bounds.append((low, high))
            frame.arrays[name] = ArrayStorage(name, atype, bounds)

    def _eval_linear(self, frame: _Frame, expr: LinearExpr) -> int:
        total = expr.const
        for sym, coeff in expr.terms.items():
            total += coeff * int(self._read_name(frame, sym))
        return total

    # -- evaluation helpers ---------------------------------------------------

    def _read_name(self, frame: _Frame, name: str) -> Number:
        value = frame.scalars.get(name)
        if value is not None or name in frame.scalars:
            return value
        # undefined scalar: default to zero of its declared type
        stype = frame.function.scalar_types.get(name)
        if stype is None:
            raise InterpError("read of unknown variable %r" % name)
        return 0.0 if stype is REAL else 0

    def _eval(self, frame: _Frame, value: Value) -> Number:
        if isinstance(value, Const):
            return value.value
        assert isinstance(value, Var)
        return self._read_name(frame, value.name)

    # -- execution --------------------------------------------------------------

    def _run_function(self, frame: _Frame) -> None:
        block = frame.function.entry
        prev: Optional[BasicBlock] = None
        edges = self._edges
        if edges is None:
            while block is not None:
                block, prev = self._run_block(frame, block, prev)
            return
        # edge collection: the function-entry pseudo-edge, then each
        # taken CFG edge
        fname = frame.function.name
        edges[(fname, "", block.name)] += 1
        while block is not None:
            nxt, prev = self._run_block(frame, block, prev)
            if nxt is not None:
                edges[(fname, prev.name, nxt.name)] += 1
            block = nxt

    def _run_block(self, frame: _Frame, block: BasicBlock,
                   prev: Optional[BasicBlock]):
        self._steps += len(block.instructions)
        if self._steps > self.max_steps:
            raise StepLimitError("execution exceeded %d steps"
                                 % self.max_steps)
        counters = self.counters
        # phis first, evaluated simultaneously against the incoming edge
        index = 0
        instructions = block.instructions
        if instructions and isinstance(instructions[0], Phi):
            moves = []
            while index < len(instructions) and \
                    isinstance(instructions[index], Phi):
                phi = instructions[index]
                moves.append((phi.dest.name,
                              self._eval(frame, phi.value_for(prev))))
                index += 1
            for name, value in moves:
                frame.scalars[name] = value
            counters.phis += len(moves)
        while index < len(instructions):
            inst = instructions[index]
            index += 1
            if isinstance(inst, Check):
                counters.checks += 1
                self._run_check(frame, inst)
                continue
            if isinstance(inst, BinOp):
                counters.instructions += 1
                frame.scalars[inst.dest.name] = _binop(
                    inst.op, self._eval(frame, inst.lhs),
                    self._eval(frame, inst.rhs))
                continue
            if isinstance(inst, Assign):
                # phi copies (SSA destruction) count as phis, exactly
                # like the phi moves they lower; getattr tolerates
                # instructions unpickled from pre-flag cache entries
                if getattr(inst, "is_phi_copy", False):
                    counters.phis += 1
                else:
                    counters.instructions += 1
                frame.scalars[inst.dest.name] = self._eval(frame, inst.src)
                continue
            if isinstance(inst, Load):
                # 1 + rank: a memory access plus its addressing arithmetic
                counters.instructions += 1 + len(inst.indices)
                array = self._array(frame, inst.array)
                indices = [int(self._eval(frame, i)) for i in inst.indices]
                if self.bounds_audit:
                    self._audit_access(array, indices)
                frame.scalars[inst.dest.name] = array.load(indices)
                continue
            if isinstance(inst, Store):
                counters.instructions += 1 + len(inst.indices)
                array = self._array(frame, inst.array)
                indices = [int(self._eval(frame, i)) for i in inst.indices]
                if self.bounds_audit:
                    self._audit_access(array, indices)
                array.store(indices, self._eval(frame, inst.src))
                continue
            if isinstance(inst, UnOp):
                counters.instructions += 1
                frame.scalars[inst.dest.name] = _unop(
                    inst.op, self._eval(frame, inst.operand))
                continue
            if isinstance(inst, Jump):
                if getattr(inst, "is_synthetic", False):
                    counters.phis += 1  # landing block of a split edge
                else:
                    counters.instructions += 1
                return inst.target, block
            if isinstance(inst, CondJump):
                counters.instructions += 1
                if self._eval(frame, inst.cond):
                    return inst.if_true, block
                return inst.if_false, block
            if isinstance(inst, Return):
                counters.instructions += 1
                return None, block
            if isinstance(inst, Call):
                counters.instructions += 1
                self._run_call(frame, inst)
                continue
            if isinstance(inst, Print):
                counters.instructions += 1
                self.output.append(self._eval(frame, inst.value))
                continue
            if isinstance(inst, SpecGuard):
                # free in the instruction count: the guard replaces
                # per-iteration checks, and its cost is reported via
                # the dedicated spec_guards/spec_misses counters
                frame.scalars[inst.dest.name] = self._run_spec_guard(
                    frame, inst)
                continue
            if isinstance(inst, Trap):
                counters.traps += 1
                raise RangeTrap(inst.message)
            raise InterpError("cannot execute %r" % inst)
        raise InterpError("block %s fell off the end" % block.name)

    def _run_check(self, frame: _Frame, check: Check) -> None:
        if check.is_conditional:
            self.counters.guarded_checks += 1
            for guard in check.guards:
                if self._eval_linear(frame, guard.linexpr) > guard.bound:
                    # a guard inequality fails: check not required
                    self.counters.guard_skipped += 1
                    return
        value = self._eval_linear(frame, check.linexpr)
        if value > check.bound:
            self.counters.traps += 1
            # Inlined checks carry the callee name and original call
            # line, so the trap reads like the un-inlined program's.
            context = getattr(check, "context", "")
            suffix = " %s" % context if context else ""
            raise RangeTrap(
                "range check failed: %s = %d > %d (array %s, %s bound)%s"
                % (check.linexpr, value, check.bound, check.array or "?",
                   check.kind, suffix), str(check))

    def _run_spec_guard(self, frame: _Frame, inst: SpecGuard) -> bool:
        for guard in inst.pre_guards:
            if self._eval_linear(frame, guard.linexpr) > guard.bound:
                # zero-trip loop: the fast path is trivially safe and
                # the envelope is never evaluated (no counter bumps)
                return True
        self.counters.spec_guards += 1
        for guard in inst.guards:
            if self._eval_linear(frame, guard.linexpr) > guard.bound:
                self.counters.spec_misses += 1
                return False
        return True

    def _audit_access(self, array: ArrayStorage,
                      indices: List[int]) -> None:
        """The per-access bounds audit (independent of Check traps)."""
        if len(indices) != len(array.bounds):
            raise InterpError(
                "array %s: rank %d accessed with %d indices"
                % (array.name, len(array.bounds), len(indices)))
        for dim, index in enumerate(indices):
            low, high = array.bounds[dim]
            if index < low or index > high:
                raise BoundsAuditError(array.name, indices, dim + 1,
                                       low, high)

    def _array(self, frame: _Frame, name: str) -> ArrayStorage:
        array = frame.arrays.get(name)
        if array is None:
            raise InterpError("unknown array %r" % name)
        return array

    def _run_call(self, frame: _Frame, call: Call) -> None:
        if self._depth >= self.MAX_CALL_DEPTH:
            raise CallDepthError("call depth exceeded %d "
                                 "(runaway recursion?)"
                                 % self.MAX_CALL_DEPTH)
        callee = self.module.lookup(call.callee)
        sub = _Frame(callee)
        for param, arg in zip(callee.params, call.args):
            value = self._eval(frame, arg)
            sub.scalars[param.name] = (float(value)
                                       if param.type is REAL else int(value))
        for pname, aname in zip(callee.array_params, call.array_args):
            sub.arrays[pname] = self._array(frame, aname)
        self._materialize_arrays(sub)
        self._depth += 1
        try:
            self._run_function(sub)
        finally:
            self._depth -= 1


def _binop(op: str, a: Number, b: Number) -> Number:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "div":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise InterpError("integer division by zero")
            return _int_div(a, b)
        if b == 0:
            raise InterpError("division by zero")
        return a / b
    if op == "mod":
        if b == 0:
            raise InterpError("mod by zero")
        if isinstance(a, int) and isinstance(b, int):
            return a - _int_div(a, b) * b
        return math.fmod(a, b)
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "and":
        return bool(a) and bool(b)
    if op == "or":
        return bool(a) or bool(b)
    raise InterpError("unknown binary op %r" % op)


def _unop(op: str, a: Number) -> Number:
    if op == "neg":
        return -a
    if op == "not":
        return not a
    if op == "abs":
        return abs(a)
    if op == "itor":
        return float(a)
    if op == "rtoi":
        return int(a)
    if op == "sqrt":
        return math.sqrt(a)
    if op == "exp":
        return math.exp(a)
    if op == "log":
        return math.log(a)
    if op == "sin":
        return math.sin(a)
    if op == "cos":
        return math.cos(a)
    raise InterpError("unknown unary op %r" % op)


def _int_div(a: int, b: int) -> int:
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def run_module(module: Module,
               inputs: Optional[Mapping[str, Number]] = None,
               max_steps: int = 50_000_000) -> Machine:
    """Convenience wrapper: execute and return the machine."""
    machine = Machine(module, inputs, max_steps)
    machine.run()
    return machine
