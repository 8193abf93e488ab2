"""The Python back-end: translate IR to instrumented Python source.

The paper measured dynamic counts by translating Fortran to
*instrumented C* and running it.  This module is the same idea one
level up, organized as a **direct-threaded execution engine**: each
basic block becomes a Python closure that executes the block body and
returns the closure of the successor block (or ``None`` for a
function return).  Dispatch is then a dict-free indirect call,

    _next = _blk_entry
    while _next is not None:
        _next = _next()

instead of the O(num_blocks) ``if _block == N ... elif`` scan the
previous engine performed on every branch.  Counter bumps are
precomputed per-block constants -- every instruction of a basic block
executes when the block does, so ``instructions += <cost>`` once per
entry is exact and much faster than interpreting instruction by
instruction.  Array load/store paths precompute base offsets and
per-dimension bounds into function-scope locals and index the backing
list directly, falling back to :class:`ArrayStorage` accessors (and
their independent fault detection) only when an index is out of
bounds.

The engine enforces the same execution limits as the interpreter:
a step budget (``max_steps`` fuel, bumped per block entry) raising
:class:`~repro.errors.StepLimitError` and a call-depth bound of
``Machine.MAX_CALL_DEPTH`` raising
:class:`~repro.errors.CallDepthError` -- so runaway programs fail
identically regardless of engine instead of hanging a service worker
or dying with a raw ``RecursionError``.

Range checks compile to real ``if`` tests (a trap must still fire at
the right moment); their *count* is part of the per-block constant.
Phi copies introduced by SSA destruction (and the synthetic jumps of
split critical edges) are charged to the ``phis`` counter, keeping
dynamic instruction counts identical to interpreting the SSA module.

Scalar names are mangled with a collision-proof escape (``_`` ->
``__``, ``.`` -> ``_d``, any other non-alphanumeric -> ``_u<hex>_``),
so the SSA temp ``i.1`` and a user scalar ``i_1`` stay distinct
identifiers.

The back-end consumes non-SSA IR; the driver destructs SSA first.  The
generated module runs against the same :class:`ArrayStorage` the
interpreter uses, so out-of-bounds accesses still fault independently
of the compiled checks.
"""

from __future__ import annotations

from types import CodeType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .. import faults
from ..errors import CallDepthError, InterpError, IRError, StepLimitError
from ..interp.counters import ExecutionCounters
from ..interp.machine import Machine
from ..interp.values import ArrayStorage
from ..ir.basicblock import BasicBlock
from ..ir.function import Function, Module
from ..ir.instructions import (Assign, BinOp, Call, Check, CondJump, Jump,
                               Load, Phi, Print, Return, SpecGuard, Store,
                               Trap, UnOp)
from ..ir.types import BOOL, INT, REAL
from ..ir.values import Const, Value, Var
from ..symbolic import LinearExpr

Number = Union[int, float]

#: Version of the translation scheme.  Part of the
#: :class:`~repro.pipeline.cache.BackendCache` key, so cached compiled
#: modules from an older engine can never be executed by a newer one.
ENGINE_VERSION = 2

_PRELUDE = '''\
import math as _math

def _idiv(a, b):
    if b == 0:
        raise _InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q

def _imod(a, b):
    if b == 0:
        raise _InterpError("mod by zero")
    return a - _idiv(a, b) * b

def _fmod(a, b):
    if b == 0:
        raise _InterpError("mod by zero")
    return _math.fmod(a, b)
'''


def _escape(name: str) -> str:
    """Collision-proof identifier escape (injective by construction).

    ASCII alphanumerics pass through; ``_`` becomes ``__``, ``.``
    becomes ``_d`` and anything else becomes ``_u<hex>_``.  Decoding is
    deterministic (after a ``_`` the next character selects the escape
    form), so two distinct IR names can never mangle to the same
    Python identifier -- in particular the SSA temp ``i.1`` (``i_d1``)
    and a user scalar ``i_1`` (``i__1``) stay distinct.
    """
    out = []
    for ch in name:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        elif ch == "_":
            out.append("__")
        elif ch == ".":
            out.append("_d")
        else:
            out.append("_u%x_" % ord(ch))
    return "".join(out)


def _mangle(name: str) -> str:
    return "v_" + _escape(name)


def _array_ref(name: str) -> str:
    return "arr_" + _escape(name)


def _fn_ref(name: str) -> str:
    return "fn_" + _escape(name)


def _is_phi_copy(inst) -> bool:
    # getattr tolerates instructions unpickled from pre-flag caches
    return isinstance(inst, Assign) and getattr(inst, "is_phi_copy", False)


def _is_synthetic_jump(inst) -> bool:
    return isinstance(inst, Jump) and getattr(inst, "is_synthetic", False)


class _FunctionEmitter:
    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self.lines: List[str] = []
        self.block_fns: Dict[str, str] = {
            block.name: "_blk_%d" % idx
            for idx, block in enumerate(function.blocks)}
        #: array name -> short local prefix for the fast-path locals
        self.array_prefix: Dict[str, str] = {}
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)) and \
                        inst.array in function.arrays and \
                        inst.array not in self.array_prefix:
                    self.array_prefix[inst.array] = \
                        "_a%d" % len(self.array_prefix)
        self._temp = 0

    # -- expression rendering ----------------------------------------------

    def _value(self, value: Value) -> str:
        if isinstance(value, Const):
            return repr(value.value)
        assert isinstance(value, Var)
        return _mangle(value.name)

    def _linexpr(self, expr: LinearExpr,
                 rename: Optional[Dict[str, str]] = None) -> str:
        parts: List[str] = []
        for sym, coeff in expr.sorted_terms():
            var = rename[sym] if rename and sym in rename else _mangle(sym)
            if coeff == 1:
                parts.append("+ %s" % var)
            elif coeff == -1:
                parts.append("- %s" % var)
            else:
                parts.append("+ %d * %s" % (coeff, var)
                             if coeff >= 0 else
                             "- %d * %s" % (-coeff, var))
        if expr.const or not parts:
            parts.append("+ %d" % expr.const if expr.const >= 0
                         else "- %d" % -expr.const)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] \
            if text.startswith("- ") else text

    def _binop(self, inst: BinOp) -> str:
        lhs, rhs = self._value(inst.lhs), self._value(inst.rhs)
        simple = {"add": "+", "sub": "-", "mul": "*", "lt": "<", "le": "<=",
                  "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
        if inst.op in simple:
            return "(%s %s %s)" % (lhs, simple[inst.op], rhs)
        if inst.op == "div":
            if inst.lhs.type is REAL or inst.rhs.type is REAL:
                return "(%s / %s)" % (lhs, rhs)
            return "_idiv(%s, %s)" % (lhs, rhs)
        if inst.op == "mod":
            if inst.lhs.type is REAL or inst.rhs.type is REAL:
                return "_fmod(%s, %s)" % (lhs, rhs)
            return "_imod(%s, %s)" % (lhs, rhs)
        if inst.op == "min":
            return "min(%s, %s)" % (lhs, rhs)
        if inst.op == "max":
            return "max(%s, %s)" % (lhs, rhs)
        if inst.op == "and":
            return "(bool(%s) and bool(%s))" % (lhs, rhs)
        if inst.op == "or":
            return "(bool(%s) or bool(%s))" % (lhs, rhs)
        raise IRError("cannot compile binary op %r" % inst.op)

    def _unop(self, inst: UnOp) -> str:
        operand = self._value(inst.operand)
        table = {"neg": "(-%s)", "not": "(not %s)", "abs": "abs(%s)",
                 "itor": "float(%s)", "rtoi": "int(%s)",
                 "sqrt": "_math.sqrt(%s)", "exp": "_math.exp(%s)",
                 "log": "_math.log(%s)", "sin": "_math.sin(%s)",
                 "cos": "_math.cos(%s)"}
        return table[inst.op] % operand

    # -- array access fast paths -------------------------------------------

    def _index_expr(self, value: Value,
                    setup: List[Tuple[int, str]], indent: int) -> str:
        """Render one subscript as an int-valued expression.

        Integer-typed values need no coercion; anything else is
        truncated through ``int()`` into a scratch temp, mirroring the
        interpreter's per-index coercion.
        """
        if isinstance(value, Const):
            return repr(int(value.value))
        name = _mangle(value.name)
        if value.type is INT or value.type is BOOL:
            return name
        self._temp += 1
        temp = "_t%d" % self._temp
        setup.append((indent, "%s = int(%s)" % (temp, name)))
        return temp

    def _store_value(self, value: Value, element_real: bool) -> str:
        """The stored value, coerced to the element type at compile
        time when the types make the coercion a no-op."""
        if isinstance(value, Const):
            return repr(float(value.value) if element_real
                        else int(value.value))
        text = self._value(value)
        if element_real:
            return text if value.type is REAL else "float(%s)" % text
        return text if value.type is INT else "int(%s)" % text

    def _fastpath_load(self, prefix: str, offset: str,
                       element_real: bool) -> str:
        """The in-bounds load expression; the specialized emitter
        overrides it to pin REAL elements to Python floats."""
        return "%s_data[%s]" % (prefix, offset)

    def _emit_access(self, indent: int, inst) -> None:
        """Emit a Load or Store with the precomputed-offset fast path.

        The guarded direct index matches :meth:`ArrayStorage._offset`
        exactly (inclusive bounds, row-major strides, folded base);
        out-of-range indices fall back to the storage accessor so the
        interpreter's independent safety net still raises the same
        :class:`InterpError`.
        """
        prefix = self.array_prefix[inst.array]
        rank = len(self.function.arrays[inst.array].dims)
        setup: List[Tuple[int, str]] = []
        ixs = [self._index_expr(v, setup, indent) for v in inst.indices]
        for ind, text in setup:
            self._line(ind, text)
        guard = " and ".join(
            "%s_l%d <= %s <= %s_h%d" % (prefix, dim, ixs[dim], prefix, dim)
            for dim in range(rank))
        terms = ["%s * %s_s%d" % (ixs[dim], prefix, dim)
                 for dim in range(rank - 1)]
        terms.append(ixs[rank - 1])
        offset = "%s - %s_base" % (" + ".join(terms), prefix)
        tup = "(%s,)" % ", ".join(ixs)
        element_real = self.function.arrays[inst.array].element is REAL
        self._line(indent, "if %s:" % guard)
        if isinstance(inst, Load):
            dest = _mangle(inst.dest.name)
            self._line(indent + 1, "%s = %s"
                       % (dest, self._fastpath_load(prefix, offset,
                                                    element_real)))
            self._line(indent, "else:")
            self._line(indent + 1, "%s = %s_load(%s)"
                       % (dest, prefix, tup))
        else:
            self._line(indent + 1, "%s_data[%s] = %s"
                       % (prefix, offset,
                          self._store_value(inst.src, element_real)))
            self._line(indent, "else:")
            self._line(indent + 1, "%s_store(%s, %s)"
                       % (prefix, tup, self._value(inst.src)))

    # -- emission --------------------------------------------------------------

    def emit(self) -> str:
        function = self.function
        self._emit_prologue()
        for block in function.blocks:
            self._emit_block(block)
        self._line(1, "_next = %s" % self.block_fns[function.entry.name])
        self._line(1, "while _next is not None:")
        self._line(2, "_next = _next()")
        return "\n".join(self.lines)

    def _emit_prologue(self) -> None:
        """The shared function preamble: signature, runtime locals,
        array allocation, scalar zero-defaults and array fast-path
        locals.  Reused by the specialized (flat-source) emitter."""
        function = self.function
        params = [_mangle(p.name) for p in function.params]
        params += [_array_ref(name) for name in function.array_params]
        self.lines = []
        self._line(0, "def %s(_rt%s):"
                   % (_fn_ref(function.name),
                      "".join(", " + p for p in params)))
        self._line(1, "_counters = _rt.counters")
        self._line(1, "_max_steps = _rt.max_steps")
        has_calls = any(isinstance(inst, Call)
                        for block in function.blocks
                        for inst in block.instructions)
        has_print = any(isinstance(inst, Print)
                        for block in function.blocks
                        for inst in block.instructions)
        if has_calls:
            self._line(1, "_max_depth = _rt.max_depth")
        if has_print:
            self._line(1, "_emit = _rt.output.append")
        for name, atype in function.arrays.items():
            if name in function.array_params:
                continue
            bound_args = []
            for dim in atype.dims:
                bound_args.append("(%s, %s)" % (self._linexpr(dim.lower),
                                                self._linexpr(dim.upper)))
            self._line(1, "%s = _rt.make_array(%r, %r, [%s])"
                       % (_array_ref(name), function.name, name,
                          ", ".join(bound_args)))
        # scalars default to zero, matching the interpreter's forgiving
        # treatment of use-before-definition.  Every defined variable
        # needs a function-scope binding for the block closures'
        # ``nonlocal`` declarations, so defs are unioned in.
        param_names = {p.name for p in function.params}
        scalar_types = dict(function.scalar_types)
        for block in function.blocks:
            for inst in block.instructions:
                dest = inst.def_var()
                if dest is not None and dest.name not in scalar_types:
                    scalar_types[dest.name] = dest.type
        for name in sorted(scalar_types):
            if name in param_names:
                continue
            stype = scalar_types[name]
            default = "0.0" if stype is REAL else \
                "False" if stype is BOOL else "0"
            self._line(1, "%s = %s" % (_mangle(name), default))
        self._emit_fastpath_locals()

    def _emit_fastpath_locals(self) -> None:
        for name, prefix in self.array_prefix.items():
            ref = _array_ref(name)
            rank = len(self.function.arrays[name].dims)
            self._line(1, "%s_data = %s.data" % (prefix, ref))
            self._line(1, "%s_load = %s.load" % (prefix, ref))
            self._line(1, "%s_store = %s.store" % (prefix, ref))
            for dim in range(rank):
                self._line(1, "%s_l%d, %s_h%d = %s.bounds[%d]"
                           % (prefix, dim, prefix, dim, ref, dim))
            for dim in range(rank - 1):
                self._line(1, "%s_s%d = %s.strides[%d]"
                           % (prefix, dim, ref, dim))
            base_terms = ["%s_l%d * %s_s%d" % (prefix, dim, prefix, dim)
                          for dim in range(rank - 1)]
            base_terms.append("%s_l%d" % (prefix, rank - 1))
            self._line(1, "%s_base = %s" % (prefix, " + ".join(base_terms)))

    def _line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _block_costs(self, block: BasicBlock):
        cost = checks = guarded = phi_moves = 0
        for inst in block.instructions:
            if isinstance(inst, Phi):
                raise IRError("the Python back-end needs destructed SSA")
            if isinstance(inst, Check):
                checks += 1
                if inst.is_conditional:
                    guarded += 1
            elif isinstance(inst, Trap):
                pass  # counted as a trap when it fires, like the interpreter
            elif isinstance(inst, (Load, Store)):
                cost += 1 + len(inst.indices)
            elif _is_phi_copy(inst) or _is_synthetic_jump(inst):
                phi_moves += 1  # free: artifacts of SSA destruction
            elif isinstance(inst, SpecGuard):
                # free in the instruction count; its spec_guards /
                # spec_misses bumps are data-dependent and emitted
                # inline by _emit_instruction
                pass
            else:
                cost += 1
        return cost, checks, guarded, phi_moves

    def _emit_block(self, block: BasicBlock) -> None:
        self._temp = 0
        self._line(1, "def %s():  # %s"
                   % (self.block_fns[block.name], block.name))
        assigned = sorted({_mangle(inst.def_var().name)
                           for inst in block.instructions
                           if inst.def_var() is not None})
        if assigned:
            self._line(2, "nonlocal %s" % ", ".join(assigned))
        # fuel: charged on block entry, before the body runs -- exactly
        # the interpreter's accounting
        self._line(2, "_rt.steps = _s = _rt.steps + %d"
                   % len(block.instructions))
        self._line(2, "if _s > _max_steps:")
        self._line(3, "_rt.step_overflow()")
        cost, checks, guarded, phi_moves = self._block_costs(block)
        if cost:
            self._line(2, "_counters.instructions += %d" % cost)
        if checks:
            self._line(2, "_counters.checks += %d" % checks)
        if guarded:
            self._line(2, "_counters.guarded_checks += %d" % guarded)
        if phi_moves:
            self._line(2, "_counters.phis += %d" % phi_moves)
        terminated = False
        for inst in block.instructions:
            self._emit_instruction(inst)
            if inst.is_terminator:
                terminated = True
        if not terminated:
            self._line(2, "return _rt.fell_off(%r)" % block.name)

    def _emit_instruction(self, inst, indent: int = 2) -> None:
        line = self._line
        if isinstance(inst, Assign):
            line(indent, "%s = %s" % (_mangle(inst.dest.name),
                                      self._value(inst.src)))
        elif isinstance(inst, BinOp):
            line(indent, "%s = %s" % (_mangle(inst.dest.name),
                                      self._binop(inst)))
        elif isinstance(inst, UnOp):
            line(indent, "%s = %s" % (_mangle(inst.dest.name),
                                      self._unop(inst)))
        elif isinstance(inst, (Load, Store)):
            if inst.array in self.array_prefix:
                self._emit_access(indent, inst)
            elif isinstance(inst, Load):  # pragma: no cover - unknown array
                line(indent, "%s = %s.load((%s,))"
                     % (_mangle(inst.dest.name), _array_ref(inst.array),
                        ", ".join("int(%s)" % self._value(i)
                                  for i in inst.indices)))
            else:  # pragma: no cover - unknown array
                line(indent, "%s.store((%s,), %s)"
                     % (_array_ref(inst.array),
                        ", ".join("int(%s)" % self._value(i)
                                  for i in inst.indices),
                        self._value(inst.src)))
        elif isinstance(inst, Check):
            if inst.guards:
                condition = " and ".join(
                    "(%s) <= %d" % (self._linexpr(guard.linexpr),
                                    guard.bound)
                    for guard in inst.guards)
                line(indent, "if %s:" % condition)
                indent += 1
            line(indent, "if (%s) > %d:"
                 % (self._linexpr(inst.linexpr), inst.bound))
            context = getattr(inst, "context", "")
            line(indent + 1, "_rt.trap(%r)"
                 % ("range check failed: %s <= %d (array %s, %s bound)%s"
                    % (inst.linexpr, inst.bound, inst.array or "?",
                       inst.kind, " %s" % context if context else "")))
            if inst.guards:
                # mirror the interpreter: a failed guard still counts
                # the Cond-check as executed work, but the range
                # inequality itself was skipped
                line(indent - 1, "else:")
                line(indent, "_counters.guard_skipped += 1")
        elif isinstance(inst, SpecGuard):
            dest = _mangle(inst.dest.name)
            if inst.pre_guards:
                pre = " and ".join(
                    "(%s) <= %d" % (self._linexpr(guard.linexpr),
                                    guard.bound)
                    for guard in inst.pre_guards)
                line(indent, "if not (%s):" % pre)
                line(indent + 1, "%s = True" % dest)
                line(indent, "else:")
                indent += 1
            env = " and ".join(
                "(%s) <= %d" % (self._linexpr(guard.linexpr), guard.bound)
                for guard in inst.guards) or "True"
            line(indent, "_counters.spec_guards += 1")
            line(indent, "%s = %s" % (dest, env))
            line(indent, "if not %s:" % dest)
            line(indent + 1, "_counters.spec_misses += 1")
        elif isinstance(inst, Trap):
            line(indent, "_rt.trap(%r)" % inst.message)
            line(indent, "return None")  # unreachable; trap always raises
        elif isinstance(inst, Print):
            line(indent, "_emit(%s)" % self._value(inst.value))
        elif isinstance(inst, Call):
            callee = self.module.lookup(inst.callee)
            args = ["_rt"]
            for param, arg in zip(callee.params, inst.args):
                if isinstance(arg, Const):
                    args.append(repr(float(arg.value)
                                     if param.type is REAL
                                     else int(arg.value)))
                    continue
                text = self._value(arg)
                if param.type is REAL:
                    args.append(text if arg.type is REAL
                                else "float(%s)" % text)
                else:
                    args.append(text if arg.type is INT
                                else "int(%s)" % text)
            args += [_array_ref(name) for name in inst.array_args]
            line(indent, "if _rt.depth >= _max_depth:")
            line(indent + 1, "_rt.depth_overflow()")
            line(indent, "_rt.depth += 1")
            line(indent, "%s(%s)" % (_fn_ref(inst.callee), ", ".join(args)))
            line(indent, "_rt.depth -= 1")
        elif isinstance(inst, Jump):
            line(indent, "return %s" % self.block_fns[inst.target.name])
        elif isinstance(inst, CondJump):
            line(indent, "return %s if %s else %s"
                 % (self.block_fns[inst.if_true.name],
                    self._value(inst.cond),
                    self.block_fns[inst.if_false.name]))
        elif isinstance(inst, Return):
            line(indent, "return None")
        else:  # pragma: no cover
            raise IRError("cannot compile %r" % inst)


class _Runtime:
    """Services the generated code calls back into.

    Also the carrier of the engine's execution limits: ``steps`` is the
    fuel spent so far (bumped by the generated per-block prologue) and
    ``depth`` the live call depth (bumped around generated calls).
    Both limits raise the same typed errors as the interpreter.
    """

    def __init__(self, module: Module, inputs: Mapping[str, Number],
                 max_steps: int = 50_000_000) -> None:
        self.module = module
        self.inputs = dict(inputs)
        self.counters = ExecutionCounters()
        self.output: List[Number] = []
        self.steps = 0
        self.depth = 0
        self.max_steps = max_steps
        self.max_depth = Machine.MAX_CALL_DEPTH

    def make_array(self, function_name: str, array_name: str,
                   bounds) -> ArrayStorage:
        atype = self.module.lookup(function_name).arrays[array_name]
        return ArrayStorage(array_name, atype,
                            [(int(lo), int(hi)) for lo, hi in bounds])

    def trap(self, message: str) -> None:
        from ..errors import RangeTrap

        self.counters.traps += 1
        error = RangeTrap(message)
        # the runtime (output so far, counters) would otherwise be
        # unreachable after the raise; the fuzz oracle compares it
        # against the interpreter's trap-time state
        error.runtime = self
        raise error

    def step_overflow(self) -> None:
        raise StepLimitError("execution exceeded %d steps" % self.max_steps)

    def depth_overflow(self) -> None:
        raise CallDepthError("call depth exceeded %d (runaway recursion?)"
                             % self.max_depth)

    def fell_off(self, block_name: str) -> None:
        raise InterpError("block %s fell off the end" % block_name)


def _compile(source: str) -> CodeType:
    """The code object of a generated module."""
    return compile(source, "<repro-pybackend>", "exec")


class CompiledPythonModule:
    """A module translated to Python, ready to execute repeatedly.

    ``source`` may be supplied by a cache
    (:class:`~repro.pipeline.cache.BackendCache`) to skip the
    translation pass; it must have been produced by this
    ``ENGINE_VERSION`` from the same (destructed) module.
    """

    def __init__(self, module: Module,
                 source: Optional[str] = None) -> None:
        if module.main is None:
            raise IRError("module has no main program")
        self.module = module
        if source is None:
            self.source, code = self._translate(module)
        else:
            self.source, code = source, _compile(source)
        self._namespace: Dict[str, object] = {"_InterpError": InterpError}
        exec(code, self._namespace)

    @staticmethod
    def _translate(module: Module) -> Tuple[str, CodeType]:
        """The module's generated source and its code object."""
        pieces = [_PRELUDE]
        for function in module:
            for block in function.blocks:
                if block.phis():
                    raise IRError(
                        "the Python back-end needs destructed SSA "
                        "(function %s still has phis)" % function.name)
            pieces.append(_FunctionEmitter(module, function).emit())
        source = "\n\n".join(pieces)
        return source, _compile(source)

    def run(self, inputs: Optional[Mapping[str, Number]] = None,
            max_steps: int = 50_000_000) -> _Runtime:
        """Execute the translated main program."""
        runtime = _Runtime(self.module, inputs or {}, max_steps)
        main = self.module.main
        args = [runtime]
        for param in main.params:
            default = main.input_defaults.get(param.name, 0)
            value = runtime.inputs.get(param.name, default)
            args.append(float(value) if param.type is REAL else int(value))
        entry = self._namespace[_fn_ref(main.name)]
        try:
            entry(*args)
        except ZeroDivisionError:
            # real division compiles to a bare ``/``; translate the
            # Python error into the interpreter's typed error
            raise InterpError("division by zero") from None
        return runtime


def compile_to_python(module: Module) -> CompiledPythonModule:
    """Translate a (phi-free) module to executable Python."""
    faults.fire("backend.compile")
    return CompiledPythonModule(module)
