"""The tier-2 "specialized" back-end: flat source + vectorized loops.

The threaded back-end (:mod:`.pybackend`) still dispatches one Python
closure per basic block.  This engine removes that last layer of
interpretation: each IR function becomes ONE flat Python function with
real ``if``/``while`` control flow reconstructed from the dominator,
postdominator and loop-nesting structure, and plain locals instead of
closure ``nonlocal`` cells.

On top of the flat source, innermost affine loops that
:mod:`repro.analysis.affine` + :mod:`repro.induction.tripcount` prove
linear with a computable trip count are lowered to NumPy vectorized
slice kernels.  A kernel replaces the whole ``T``-iteration scalar
loop with a handful of array operations and charges the execution
counters in *closed form* (trip count x per-iteration cost), which is
exactly the paper's observation that loop aggregates of per-iteration
costs have closed forms.

Parity is non-negotiable and is engineered, not hoped for:

* a kernel runs only after a *hazard prologue* proves that no
  iteration can trap, fault, overflow the step budget, violate
  float-exactness (|int| <= 2**53) or alias a vector store against
  another access in an order-sensitive way.  Any hazard makes the
  kernel return ``-1`` **before any observable effect**, and the
  emitted scalar loop runs instead, reproducing the interpreter's
  behaviour instruction by instruction (including mid-loop traps,
  partial stores and the exact ``StepLimitError`` point);
* only bitwise-exact operations are vectorized (float64 ``+ - * /``,
  ``neg``/``abs``, int->float conversion under the 2**53 cap); NaN- or
  error-semantics-divergent ops (``min``/``max``, transcendentals,
  ``mod``, int division, ``rtoi``) always take the scalar path;
* functions whose control flow the structurer cannot reconstruct fall
  back wholesale to the threaded emitter inside the same generated
  module, so every program still runs under ``--engine specialized``.

Like the threaded engine the translator consumes destructed (phi-free)
IR -- but it *plans* vector loops on SSA form first, so callers hand it
the SSA module and it destructs in place (callers pass private clones,
matching the existing in-place convention of the pipeline).
"""

from __future__ import annotations

import re
from types import CodeType
from typing import Dict, List, Optional, Set, Tuple

from .. import faults
from ..analysis.affine import AffineEnv, compute_affine_forms
from ..analysis.dominance import PostDominators
from ..analysis.loops import Loop, LoopForest
from ..induction.tripcount import _phi_edges, find_loop_iv
from ..ir.basicblock import BasicBlock
from ..ir.function import Function, Module
from ..ir.instructions import (Assign, BinOp, Check, CondJump, Jump, Load,
                               Phi, Return, Store, UnOp)
from ..ir.types import INT, REAL
from ..ir.values import Const, Value, Var
from ..ssa import destruct_ssa
from ..symbolic import LinearExpr
from .pybackend import (_PRELUDE, CompiledPythonModule, _compile,
                        _FunctionEmitter, _array_ref, _is_phi_copy,
                        _is_synthetic_jump, _mangle)

#: Version of the specialized translation scheme; part of the
#: per-engine BackendCache key (suffix ``-sp<N>``), independent of the
#: threaded engine's ``ENGINE_VERSION``.
SPECIALIZED_ENGINE_VERSION = 1

#: Largest |int| exactly representable as a float64.  Vectorized
#: int->float conversions outside this range would round differently
#: from the interpreter's exact-int arithmetic, so kernels bail out.
_FLOAT_EXACT_CAP = 9007199254740992  # 2 ** 53

#: Trip counts above this stay scalar: bounds vector temp memory.
_MAX_VECTOR_TRIP = 8_000_000

#: Trip counts below this stay scalar: per-call numpy overhead beats
#: the flat scalar loop for very short trips (the scalar replay is
#: parity-identical by construction, so the threshold is free to tune).
_MIN_VECTOR_TRIP = 8

_SPECIALIZED_PRELUDE = '''\
try:
    import numpy as _np
    _np.seterr(all="ignore")
except ImportError:  # vector kernels disabled, scalar paths still run
    _np = None

def _vload(data, b, c, t, copy=0):
    if c == 0 or t == 1:
        # every iteration reads the same element (or there is only
        # one): a Python float broadcasts through computes and stores
        return float(data[b])
    if type(data) is not list:
        stop = b + c * t
        view = data[b:(stop if (c > 0 or stop >= 0) else None):c]
        return view.copy() if copy else view
    if c > 0:
        return _np.asarray(data[b:b + c * t:c], dtype=_np.float64)
    stop = b + c * t
    return _np.asarray(data[b:(stop if stop >= 0 else None):c],
                       dtype=_np.float64)

def _vstore(data, b, c, t, val):
    if type(data) is not list:
        stop = b + c * t
        data[b:(stop if (c > 0 or stop >= 0) else None):c] = val
        return
    seq = [float(val)] * t if _np.ndim(val) == 0 else val.tolist()
    if c > 0:
        data[b:b + c * t:c] = seq
    else:
        stop = b + c * t
        data[b:(stop if stop >= 0 else None):c] = seq

def _vdis(b1, c1, b2, c2, t):
    l1, h1 = (b1, b1 + c1 * (t - 1)) if c1 >= 0 else (b1 + c1 * (t - 1), b1)
    l2, h2 = (b2, b2 + c2 * (t - 1)) if c2 >= 0 else (b2 + c2 * (t - 1), b2)
    if h1 < l2 or h2 < l1:
        return True
    return c1 == c2 != 0 and (b1 - b2) % c1 != 0
'''


#: A fast-path local of an array (``_a<k>_data``, ``_a<k>_l0``, ...):
#: every name a fast-path binding defines has this form.  No leading
#: ``\b``: a literal prefix lets the scan skip ahead, and
#: :func:`_array_locals` drops the matches inside a longer word.
_ARRAY_LOCAL = re.compile(r"_a\d+_\w*")


def _array_locals(text: str) -> Set[str]:
    """The fast-path local names in ``text`` (each starting a word)."""
    names = set()
    for match in _ARRAY_LOCAL.finditer(text):
        start = match.start()
        before = text[start - 1] if start else " "
        if not (before.isalnum() or before == "_"):
            names.add(match.group())
    return names


class _Unsupported(Exception):
    """Raised when the flat structurer meets control flow it cannot
    reconstruct; the whole function falls back to the threaded
    emitter."""


# ---------------------------------------------------------------------------
# vector planning (runs on SSA form, before destruction)
# ---------------------------------------------------------------------------

class _Op:
    """One chain instruction's kernel recipe, in program order."""

    __slots__ = ("kind", "inst", "dest", "op", "operands", "array", "dims",
                 "deltas", "src", "form", "bound", "forwarded")

    def __init__(self, kind: str, inst) -> None:
        self.kind = kind          # skip | bin | un | red | load | store | check
        self.inst = inst
        self.dest: Optional[str] = None
        self.op: Optional[str] = None
        self.operands: List[tuple] = []
        self.array: Optional[str] = None
        self.dims: List[LinearExpr] = []
        self.deltas: List[int] = []
        self.src: Optional[tuple] = None
        self.form: Optional[LinearExpr] = None
        self.bound: Optional[int] = None
        self.forwarded: Optional[tuple] = None


class _LoopPlan:
    """Everything the emitter needs to vectorize one innermost loop."""

    __slots__ = ("header", "body_block", "cmp_inst", "iv_name", "cmp_name",
                 "init_form", "bound_form", "step", "ops", "reduction")

    def __init__(self, header, body_block, cmp_inst, iv_name, cmp_name,
                 init_form, bound_form, step, ops, reduction=None) -> None:
        self.header = header
        self.body_block = body_block
        self.cmp_inst = cmp_inst
        self.iv_name = iv_name
        self.cmp_name = cmp_name
        self.init_form = init_form
        self.bound_form = bound_form
        self.step = step
        self.ops = ops
        #: (phi-name, latch-value-name) of the single REAL accumulator,
        #: or None when the loop carries no scalar besides the iv
        self.reduction = reduction


class _PlanBail(Exception):
    pass


def _plan_loops(function: Function) -> Dict[BasicBlock, _LoopPlan]:
    """Vector plans for every provable innermost loop, keyed by header
    block (block objects survive SSA destruction by identity)."""
    env = compute_affine_forms(function)
    forest = LoopForest(function)
    plans: Dict[BasicBlock, _LoopPlan] = {}
    for loop in forest.loops:
        if loop.children:
            continue
        try:
            plan = _plan_one(function, loop, forest, env)
        except _PlanBail:
            plan = None
        if plan is not None:
            plans[loop.header] = plan
    return plans


def _plan_one(function: Function, loop: Loop, forest: LoopForest,
              env: AffineEnv) -> Optional[_LoopPlan]:
    iv = find_loop_iv(function, loop, forest, env)
    if iv is None or iv.phi.dest.type is not INT:
        return None
    header = loop.header
    term = header.terminator
    # exit must be the false edge: at loop exit the compare is False
    if not isinstance(term, CondJump) or term.if_true is not iv.body_block:
        return None
    phis = header.phis()
    reduction = None
    if phis != [iv.phi]:
        # one extra REAL phi is a candidate accumulator (vectorized as
        # a sequential fold); anything else stays scalar
        extra = [p for p in phis if p is not iv.phi]
        if iv.phi not in phis or len(extra) != 1 \
                or extra[0].dest.type is not REAL:
            return None
        red_phi = extra[0]
        _red_init, red_next, _pred = _phi_edges(loop, red_phi)
        if red_next is None or not isinstance(red_next, Var):
            return None
        reduction = (red_phi.dest.name, red_next.name)
    plain = [i for i in header.instructions if not isinstance(i, Phi)]
    if len(plain) != 2 or plain[1] is not term:
        return None
    cmp_inst = plain[0]
    if not isinstance(cmp_inst, BinOp) or not isinstance(term.cond, Var) \
            or cmp_inst.dest.name != term.cond.name:
        return None
    iv_name = iv.phi.dest.name
    _require_outer_int_atoms(iv.init_affine, loop, env, iv_name,
                             allow_iv=False)
    _require_outer_int_atoms(iv.bound_affine, loop, env, iv_name,
                             allow_iv=False)

    # the loop body must be a linear chain of single-successor blocks
    preds = function.predecessor_map()
    chain: List[BasicBlock] = []
    cur = iv.body_block
    while True:
        if cur is header or cur in chain or cur not in loop.blocks:
            return None
        if len(preds[cur]) != 1:
            return None
        chain.append(cur)
        cterm = cur.terminator
        if not isinstance(cterm, Jump):
            return None
        if cterm.target is header:
            break
        cur = cterm.target
    if set(chain) != loop.blocks - {header}:
        return None

    planner = _ChainPlanner(function, loop, env, iv_name, iv.step,
                            reduction)
    try:
        ops = planner.plan(chain)
    except _PlanBail:
        return None
    return _LoopPlan(header, iv.body_block, cmp_inst, iv_name,
                     cmp_inst.dest.name, iv.init_affine, iv.bound_affine,
                     iv.step, ops, reduction)


def _require_outer_int_atoms(form: LinearExpr, loop: Loop, env: AffineEnv,
                             iv_name: str, allow_iv: bool = True) -> None:
    """Every symbol must be the induction variable (when allowed) or an
    integer variable defined outside the loop."""
    for sym in form.symbols():
        if allow_iv and sym == iv_name:
            continue
        var = env.var_for(sym)
        if var is None or var.type is not INT:
            raise _PlanBail()
        block = env.def_block(sym)
        if block is not None and block in loop.blocks:
            raise _PlanBail()


class _ChainPlanner:
    """Classifies the loop-body chain into kernel recipes, or bails."""

    #: pure int/bool operations whose chain definitions may be skipped
    #: outright: they cannot raise, and any value that feeds a vector
    #: recipe is recovered through its affine form (non-affine results
    #: like ``abs`` stay atomic and make their consumers bail).
    _SKIP_INT_BINOPS = frozenset(
        ["add", "sub", "mul", "min", "max",
         "lt", "le", "gt", "ge", "eq", "ne", "and", "or"])
    _SKIP_UNOPS = frozenset(["neg", "abs", "not"])

    def __init__(self, function, loop, env, iv_name, step,
                 reduction=None) -> None:
        self.function = function
        self.loop = loop
        self.env = env
        self.iv_name = iv_name
        self.step = step
        #: chain-defined REAL ssa name -> operand descriptor
        self.real_env: Dict[str, tuple] = {}
        self.red_next: Optional[str] = None
        self.acc_cur: Optional[str] = None
        if reduction is not None:
            red_phi, self.red_next = reduction
            # ("acc", name) marks the value currently at the tip of the
            # accumulator chain; stale copies keep the name they
            # aliased, so a non-linear use shows up as a mismatch
            self.real_env[red_phi] = ("acc", red_phi)
            self.acc_cur = red_phi

    def plan(self, chain: List[BasicBlock]) -> List[_Op]:
        ops: List[_Op] = []
        for block in chain:
            for inst in block.instructions:
                if inst.is_terminator:
                    continue
                ops.append(self._classify(inst, ops))
        if self.red_next is not None:
            tail = self.real_env.get(self.red_next)
            if tail is None or tail[0] != "acc" or tail[1] != self.acc_cur:
                raise _PlanBail()  # phi latch value is off the acc chain
        return ops

    # -- operand resolution ------------------------------------------------

    def _resolve(self, value: Value) -> tuple:
        """An operand descriptor for a value used in REAL context:
        ("const", float) | ("outer", name) | ("vec", ssa-name) |
        ("affine", LinearExpr over {iv} + outer int atoms) |
        ("acc", ssa-name) for the loop-carried accumulator chain."""
        if isinstance(value, Const):
            try:
                return ("const", float(value.value))
            except OverflowError:
                raise _PlanBail()
        assert isinstance(value, Var)
        if value.type is REAL:
            if value.name in self.real_env:
                return self.real_env[value.name]
            block = self.env.def_block(value.name)
            if block is not None and block in self.loop.blocks:
                raise _PlanBail()  # chain REAL without a recipe
            return ("outer", value.name)
        if value.type is INT:
            form = self.env.form_of(value)
            _require_outer_int_atoms(form, self.loop, self.env, self.iv_name)
            return ("affine", form)
        raise _PlanBail()  # BOOL in arithmetic context

    def _dims_for(self, inst) -> Tuple[List[LinearExpr], List[int]]:
        dims: List[LinearExpr] = []
        deltas: List[int] = []
        for index in inst.indices:
            try:
                form = self.env.form_of(index)
            except ValueError:
                raise _PlanBail()
            _require_outer_int_atoms(form, self.loop, self.env, self.iv_name)
            dims.append(form)
            deltas.append(form.coefficient(self.iv_name) * self.step)
        return dims, deltas

    # -- classification ----------------------------------------------------

    def _classify(self, inst, ops: List[_Op]) -> _Op:
        if isinstance(inst, Assign):
            if inst.dest.type is REAL:
                self.real_env[inst.dest.name] = self._resolve(inst.src)
            return _Op("skip", inst)
        if isinstance(inst, BinOp):
            if inst.dest.type is REAL:
                if inst.op not in ("add", "sub", "mul", "div"):
                    raise _PlanBail()  # min/max (NaN), mod (error parity)
                lhs, rhs = self._resolve(inst.lhs), self._resolve(inst.rhs)
                if lhs[0] == "acc" or rhs[0] == "acc":
                    # the accumulator may only advance through
                    # left-leaning add/sub: the kernel replays those as
                    # a sequential fold in the scalar association order
                    if lhs != ("acc", self.acc_cur) or rhs[0] == "acc" \
                            or inst.op not in ("add", "sub"):
                        raise _PlanBail()
                    op = _Op("red", inst)
                    op.op = inst.op
                    op.dest = inst.dest.name
                    op.operands = [rhs]
                    self.real_env[inst.dest.name] = ("acc", inst.dest.name)
                    self.acc_cur = inst.dest.name
                    return op
                op = _Op("bin", inst)
                op.op = inst.op
                op.dest = inst.dest.name
                op.operands = [lhs, rhs]
                if inst.op == "div" and op.operands[1][0] == "const" \
                        and op.operands[1][1] == 0.0:
                    raise _PlanBail()  # always-raising division
                self.real_env[inst.dest.name] = ("vec", inst.dest.name)
                return op
            if inst.op in self._SKIP_INT_BINOPS:
                return _Op("skip", inst)
            raise _PlanBail()  # int div/mod can raise mid-loop
        if isinstance(inst, UnOp):
            if inst.dest.type is REAL:
                if inst.op in ("neg", "abs"):
                    op = _Op("un", inst)
                    op.op = inst.op
                    op.dest = inst.dest.name
                    op.operands = [self._resolve(inst.operand)]
                    if op.operands[0][0] == "acc":
                        raise _PlanBail()  # acc value leaves the fold
                    self.real_env[inst.dest.name] = ("vec", inst.dest.name)
                    return op
                if inst.op == "itor":
                    # value recovered from the operand's affine form at
                    # materialization time (with the 2**53 guard)
                    self.real_env[inst.dest.name] = \
                        self._resolve(inst.operand)
                    return _Op("skip", inst)
                raise _PlanBail()  # sqrt/exp/... error + value parity
            if inst.op in self._SKIP_UNOPS:
                return _Op("skip", inst)
            raise _PlanBail()  # rtoi can raise on inf/nan
        if isinstance(inst, Load):
            atype = self.function.arrays.get(inst.array)
            if atype is None or atype.element is not REAL:
                raise _PlanBail()
            dims, deltas = self._dims_for(inst)
            forwarded = self._forward_from(ops, inst.array, dims)
            op = _Op("load", inst)
            op.array = inst.array
            op.dims, op.deltas = dims, deltas
            op.dest = inst.dest.name
            if forwarded is not None:
                op.forwarded = forwarded
                self.real_env[inst.dest.name] = forwarded
            else:
                self.real_env[inst.dest.name] = ("vec", inst.dest.name)
            return op
        if isinstance(inst, Store):
            atype = self.function.arrays.get(inst.array)
            if atype is None or atype.element is not REAL:
                raise _PlanBail()
            op = _Op("store", inst)
            op.array = inst.array
            op.dims, op.deltas = self._dims_for(inst)
            op.src = self._resolve(inst.src)
            if op.src[0] == "acc":
                raise _PlanBail()  # per-iteration acc values stay scalar
            return op
        if isinstance(inst, Check):
            if inst.guards:
                raise _PlanBail()  # guard bookkeeping stays scalar
            form = LinearExpr.constant(inst.linexpr.const)
            for sym, coeff in inst.linexpr.sorted_terms():
                try:
                    form = form + self.env.form_of(inst.operands[sym]) * coeff
                except ValueError:
                    raise _PlanBail()
            _require_outer_int_atoms(form, self.loop, self.env, self.iv_name)
            op = _Op("check", inst)
            op.form = form
            op.bound = inst.bound
            return op
        # Trap, Call, Print, Phi, stray terminators: scalar only
        raise _PlanBail()

    @staticmethod
    def _forward_from(ops: List[_Op], array: str,
                      dims: List[LinearExpr]) -> Optional[tuple]:
        """The source of the last preceding store with a structurally
        equal descriptor (aliasing of unequal descriptors is excluded
        by the runtime disjointness hazard)."""
        for op in reversed(ops):
            if op.kind == "store" and op.array == array and op.dims == dims:
                return op.src
        return None


# ---------------------------------------------------------------------------
# flat emission (runs on destructed IR)
# ---------------------------------------------------------------------------

class _Frame:
    __slots__ = ("header", "exit")

    def __init__(self, header: BasicBlock,
                 exit_block: Optional[BasicBlock]) -> None:
        self.header = header
        self.exit = exit_block


class _FlatEmitter(_FunctionEmitter):
    """Emits one flat Python function with reconstructed structured
    control flow, plus vector kernels for planned loops."""

    def __init__(self, module: Module, function: Function,
                 plans: Optional[Dict[BasicBlock, _LoopPlan]] = None
                 ) -> None:
        super().__init__(module, function)
        self.plans = plans or {}
        self._kernel_id = 0

    def emit(self) -> str:
        function = self.function
        self._emit_prologue()
        self.forest = LoopForest(function)
        self.pdom = PostDominators(function)
        self._frames: List[_Frame] = []
        self._emitted = set()
        self._precharged = set()
        self._emit_chain(function.entry, None, 1)
        self._trim_unused_bindings()
        return "\n".join(self.lines)

    # -- numpy-backed storage ----------------------------------------------

    def _emit_fastpath_locals(self) -> None:
        # When every function in the module is flat (``_NUMPY_STORAGE``,
        # set at the end of the generated module), REAL arrays are
        # rebacked by float64 ndarrays at creation so vector kernels
        # slice views instead of converting lists on every call.
        # Arrays can travel to callees as array params, which is why
        # the rebacking is all-or-nothing per module: a threaded
        # fallback function must never see ndarray storage.
        for name, atype in self.function.arrays.items():
            if name in self.function.array_params \
                    or atype.element is not REAL:
                continue
            ref = _array_ref(name)
            self._line(1, "if _NUMPY_STORAGE:")
            # fresh storage is all zeros, so rebacking allocates
            # directly instead of converting the list
            self._line(2, "%s.data = _np.zeros(len(%s.data))" % (ref, ref))
        span_start = len(self.lines)
        super()._emit_fastpath_locals()
        for name, prefix in self.array_prefix.items():
            if self.function.arrays[name].element is not REAL:
                continue
            # bound-method scalar accessor: ndarray.item() hands back a
            # Python float directly (cheaper than float(arr[i])); a
            # list subscript already holds one
            self._line(1, "%s_item = %s_data.__getitem__ "
                       "if type(%s_data) is list else %s_data.item"
                       % (prefix, prefix, prefix, prefix))
        self._fastpath_span = (span_start, len(self.lines))

    def _trim_unused_bindings(self) -> None:
        """Drop fastpath bindings the function body never reads.  A
        leaf called in a hot loop pays the whole prologue on every
        call, so binding only what the body (and its nested kernels)
        actually uses is a measurable win."""
        span = getattr(self, "_fastpath_span", None)
        if span is None:
            return
        start, end = span
        binds = []
        for idx in range(start, end):
            lhs, _, rhs = self.lines[idx].partition(" = ")
            binds.append((idx, _array_locals(lhs), _array_locals(rhs)))
        used = _array_locals("\n".join(self.lines[:start]
                                       + self.lines[end:]))
        live = set()
        changed = True
        while changed:
            changed = False
            for idx, lhs, rhs in binds:
                if idx not in live and lhs & used:
                    live.add(idx)
                    used |= rhs
                    changed = True
        for idx, lhs, rhs in reversed(binds):
            if idx not in live:
                del self.lines[idx]

    def _fastpath_load(self, prefix: str, offset: str,
                      element_real: bool) -> str:
        # an ndarray index yields np.float64, whose x / 0.0 is inf
        # instead of the interpreter's typed division error -- the
        # bound accessor pins scalar REAL loads to Python floats
        if element_real:
            return "%s_item(%s)" % (prefix, offset)
        return super()._fastpath_load(prefix, offset, element_real)

    # -- structurer --------------------------------------------------------

    def _goto(self, target: BasicBlock, stop: Optional[BasicBlock],
              indent: int) -> None:
        if target is stop:
            return  # fall through to code the caller emits next
        if self._frames:
            top = self._frames[-1]
            if target is top.header:
                self._line(indent, "continue")
                return
            if target is top.exit:
                self._line(indent, "break")
                return
        for frame in self._frames[:-1]:
            if target is frame.header or target is frame.exit:
                raise _Unsupported("branch crosses a loop frame")
        self._emit_chain(target, stop, indent)

    def _emit_chain(self, block: BasicBlock, stop: Optional[BasicBlock],
                    indent: int) -> None:
        loop = self.forest.by_header.get(block)
        if loop is not None and \
                not any(f.header is block for f in self._frames):
            self._emit_loop(loop, stop, indent)
            return
        if block in self._emitted:
            raise _Unsupported("block %s reached twice" % block.name)
        self._emitted.add(block)
        self._emit_flat_block(block, stop, indent)

    def _emit_branch(self, target: BasicBlock, stop: Optional[BasicBlock],
                     indent: int) -> None:
        before = len(self.lines)
        self._goto(target, stop, indent)
        if len(self.lines) == before:
            self._line(indent, "pass")

    def _charge_region(self, block: BasicBlock,
                       stop: Optional[BasicBlock]) -> List[BasicBlock]:
        """The straight-line run of blocks starting at ``block`` that is
        guaranteed to execute whole (each link an unconditional jump the
        structurer will emit as fall-through).  Fuel and counters are
        charged once for the run; moving the charge earlier keeps every
        trap-time invariant (back-end counters >= interpreter, one-sided
        step-limit) while final totals are unchanged."""
        region = [block]
        cur = block
        while True:
            term = cur.terminator
            if not isinstance(term, Jump):
                break
            target = term.target
            if target is stop or target in self._emitted or \
                    target in region or target in self.forest.by_header:
                break
            if self._frames:
                top = self._frames[-1]
                if target is top.header or target is top.exit:
                    break
            region.append(target)
            cur = target
        return region

    def _emit_flat_block(self, block: BasicBlock, stop: Optional[BasicBlock],
                         indent: int) -> None:
        self._temp = 0
        self._line(indent, "# %s" % block.name)
        if block not in self._precharged:
            region = self._charge_region(block, stop)
            self._line(indent, "_rt.steps = _s = _rt.steps + %d"
                       % sum(len(b.instructions) for b in region))
            self._line(indent, "if _s > _max_steps:")
            self._line(indent + 1, "_rt.step_overflow()")
            cost = checks = guarded = phi_moves = 0
            for piece in region:
                c, k, g, p = self._block_costs(piece)
                cost += c
                checks += k
                guarded += g
                phi_moves += p
            if cost:
                self._line(indent, "_counters.instructions += %d" % cost)
            if checks:
                self._line(indent, "_counters.checks += %d" % checks)
            if guarded:
                self._line(indent, "_counters.guarded_checks += %d" % guarded)
            if phi_moves:
                self._line(indent, "_counters.phis += %d" % phi_moves)
            self._precharged.update(region[1:])
        term = block.terminator
        for inst in block.instructions:
            if inst is term:
                break
            self._emit_instruction(inst, indent)
        if term is None:
            self._line(indent, "_rt.fell_off(%r)" % block.name)
            self._line(indent, "return None")
        elif isinstance(term, Return):
            self._line(indent, "return None")
        elif isinstance(term, Jump):
            self._goto(term.target, stop, indent)
        elif isinstance(term, CondJump):
            join = self.pdom.ipdom.get(block)
            self._line(indent, "if %s:" % self._value(term.cond))
            self._emit_branch(term.if_true, join, indent + 1)
            self._line(indent, "else:")
            before = len(self.lines)
            self._goto(term.if_false, join, indent + 1)
            if len(self.lines) == before:
                self.lines.pop()  # empty else arm
            if join is not None:
                self._goto(join, stop, indent)
        else:  # pragma: no cover - unknown terminator
            raise _Unsupported("cannot structure %r" % term)

    # -- loops -------------------------------------------------------------

    def _emit_loop(self, loop: Loop, stop: Optional[BasicBlock],
                   indent: int) -> None:
        header = loop.header
        targets = {target for _, target in loop.exit_edges()}
        if len(targets) > 1:
            raise _Unsupported("loop %s has several exit targets"
                               % header.name)
        exit_block = next(iter(targets)) if targets else None
        plan = self.plans.get(header)
        stats = self._validate_plan(plan, loop) if plan is not None and \
            exit_block is not None else None
        if stats is not None:
            result = self._emit_kernel(plan, stats, indent)
            self._line(indent, "if %s < 0:" % result)
            self._emit_scalar_loop(loop, header, exit_block, indent + 1)
        else:
            self._emit_scalar_loop(loop, header, exit_block, indent)
        if exit_block is not None:
            self._goto(exit_block, stop, indent)

    def _emit_scalar_loop(self, loop: Loop, header: BasicBlock,
                          exit_block: Optional[BasicBlock],
                          indent: int) -> None:
        self._frames.append(_Frame(header, exit_block))
        self._line(indent, "while True:")
        self._emit_chain(header, None, indent + 1)
        self._frames.pop()

    # -- vector kernels ----------------------------------------------------

    def _validate_plan(self, plan: _LoopPlan, loop: Loop):
        """Re-check the plan against the destructed IR and compute the
        closed-form cost constants.  Returns None (scalar only) when
        destruction changed anything the plan relied on."""
        header = loop.header
        plain = [i for i in header.instructions
                 if not i.is_terminator]
        if plain != [plan.cmp_inst] or \
                not isinstance(header.terminator, CondJump):
            return None
        blocks: List[BasicBlock] = []
        cur = plan.body_block
        while True:
            if cur is header or cur in blocks or cur not in loop.blocks:
                return None
            blocks.append(cur)
            term = cur.terminator
            if not isinstance(term, Jump):
                return None
            if term.target is header:
                break
            cur = term.target
        if set(blocks) != loop.blocks - {header}:
            return None
        significant = [inst for block in blocks
                       for inst in block.instructions
                       if not (inst.is_terminator or _is_phi_copy(inst)
                               or _is_synthetic_jump(inst))]
        if [id(i) for i in significant] != [id(op.inst) for op in plan.ops]:
            return None
        hdr_fuel = len(header.instructions)
        hdr_cost = self._block_costs(header)
        chain_fuel = sum(len(b.instructions) for b in blocks)
        chain_cost = [0, 0, 0, 0]
        for block in blocks:
            for i, v in enumerate(self._block_costs(block)):
                chain_cost[i] += v
        if hdr_cost[1] or hdr_cost[2] or hdr_cost[3] or chain_cost[2]:
            return None  # checks/phis in header, guarded checks in chain
        return (hdr_fuel, hdr_cost[0], chain_fuel, chain_cost[0],
                chain_cost[1], chain_cost[3])

    def _emit_kernel(self, plan: _LoopPlan, stats, indent: int) -> str:
        hdr_fuel, hdr_cost, chain_fuel, chain_cost, n_checks, n_phis = stats
        kid = self._kernel_id
        self._kernel_id += 1
        kname, rname = "_vk%d" % kid, "_vr%d" % kid
        ker = _KernelWriter(self, plan, hdr_fuel, hdr_cost, chain_fuel,
                            chain_cost, n_checks, n_phis)
        lines = ker.render()
        self._line(indent, "def %s():" % kname)
        for ind, text in lines:
            self._line(indent + 1 + ind, text)
        self._line(indent, "%s = %s()" % (rname, kname))
        return rname


class _KernelWriter:
    """Renders one vector kernel body as (indent, text) lines."""

    def __init__(self, emitter: _FlatEmitter, plan: _LoopPlan, hdr_fuel,
                 hdr_cost, chain_fuel, chain_cost, n_checks,
                 n_phis) -> None:
        self.emitter = emitter
        self.plan = plan
        self.hdr_fuel = hdr_fuel
        self.hdr_cost = hdr_cost
        self.chain_fuel = chain_fuel
        self.chain_cost = chain_cost
        self.n_checks = n_checks
        self.n_phis = n_phis
        self.rename = {plan.iv_name: "_i0"}
        self.hazards: List[str] = []  # descriptors + all bail tests
        self.computes: List[str] = []
        self.writebacks: List[str] = []
        self.reductions: List[Tuple[str, str, str]] = []  # (op, temp, kind)
        self._n = 0
        self._mat_cache: Dict[LinearExpr, str] = {}
        self._vec_names: Dict[str, str] = {}
        self._descs: List[tuple] = []  # (op, bname, cname)

    def _tmp(self, prefix: str) -> str:
        self._n += 1
        return "_%s%d" % (prefix, self._n)

    def _affine(self, form: LinearExpr) -> str:
        return self.emitter._linexpr(form, rename=self.rename)

    # -- operand materialization ------------------------------------------

    def _materialize(self, desc: tuple) -> str:
        """The float value of an operand descriptor: a scalar or a
        length-_t float64 vector expression (emitted into computes)."""
        kind = desc[0]
        if kind == "const":
            return repr(desc[1])
        if kind == "outer":
            return _mangle(desc[1])
        if kind == "vec":
            return self._vec_names[desc[1]]
        form = desc[1]
        cached = self._mat_cache.get(form)
        if cached is not None:
            return cached
        delta = form.coefficient(self.plan.iv_name) * self.plan.step
        base = self._tmp("m")
        self.computes.append("%s = %s" % (base, self._affine(form)))
        if delta == 0:
            self.computes.append(
                "if %s < -%d or %s > %d:"
                % (base, _FLOAT_EXACT_CAP, base, _FLOAT_EXACT_CAP))
            self.computes.append("    return -1")
            text = "float(%s)" % base
        else:
            last = self._tmp("m")
            self.computes.append("%s = %s + %d * (_t - 1)"
                                 % (last, base, delta))
            lo, hi = (base, last) if delta > 0 else (last, base)
            self.computes.append(
                "if %s < -%d or %s > %d:"
                % (lo, _FLOAT_EXACT_CAP, hi, _FLOAT_EXACT_CAP))
            self.computes.append("    return -1")
            vec = self._tmp("m")
            # int64 keeps every intermediate exact; the cap check above
            # makes the final astype lossless
            self.computes.append(
                "%s = (_np.arange(_t, dtype=_np.int64) * %d + %s)"
                ".astype(_np.float64)" % (vec, delta, base))
            text = vec
        self._mat_cache[form] = text
        return text

    # -- access descriptors ------------------------------------------------

    def _descriptor(self, op: _Op) -> Tuple[str, str]:
        """Emit the flat (base, step) of an access plus its per-dim
        in-bounds hazards; returns the (base, step) temp names."""
        prefix = self.emitter.array_prefix[op.array]
        rank = len(op.dims)
        firsts: List[str] = []
        for dim in range(rank):
            first = self._tmp("k")
            self.hazards.append("%s = %s"
                                % (first, self._affine(op.dims[dim])))
            firsts.append(first)
            delta = op.deltas[dim]
            lo = "%s_l%d" % (prefix, dim)
            hi = "%s_h%d" % (prefix, dim)
            if delta == 0:
                self.hazards.append("if %s < %s or %s > %s:"
                                    % (first, lo, first, hi))
            else:
                last = self._tmp("k")
                self.hazards.append("%s = %s + %d * (_t - 1)"
                                    % (last, first, delta))
                small, big = (first, last) if delta > 0 else (last, first)
                self.hazards.append("if %s < %s or %s > %s:"
                                    % (small, lo, big, hi))
            self.hazards.append("    return -1")
        terms = ["%s * %s_s%d" % (firsts[dim], prefix, dim)
                 for dim in range(rank - 1)]
        terms.append(firsts[rank - 1])
        bname = self._tmp("b")
        self.hazards.append("%s = %s - %s_base"
                            % (bname, " + ".join(terms), prefix))
        if rank == 1:
            # the flat step is the induction delta itself, a literal the
            # load/store emitters can specialize on
            return bname, "%d" % op.deltas[0]
        cname = self._tmp("c")
        cterms = ["%d * %s_s%d" % (op.deltas[dim], prefix, dim)
                  for dim in range(rank - 1) if op.deltas[dim]]
        cterms.append("%d" % op.deltas[rank - 1])
        self.hazards.append("%s = %s" % (cname, " + ".join(cterms)))
        return bname, cname

    # -- rendering ---------------------------------------------------------

    def render(self) -> List[Tuple[int, str]]:
        plan = self.plan
        step = plan.step
        iv_local = _mangle(plan.iv_name)
        cmp_local = _mangle(plan.cmp_name)
        red_local = _mangle(plan.reduction[0]) if plan.reduction else None
        out: List[Tuple[int, str]] = []
        names = [iv_local, cmp_local] + ([red_local] if red_local else [])
        out.append((0, "nonlocal %s" % ", ".join(names)))
        # _NUMPY_STORAGE implies numpy is present AND every REAL array
        # in the module is ndarray-backed; the scalar replay is
        # parity-identical, so list storage just bails (converting
        # lists per call cost more than the scalar loop anyway), and
        # every access below slices without a storage-type branch
        out.append((0, "if not _NUMPY_STORAGE:"))
        out.append((1, "return -1"))
        out.append((0, "_i0 = %s"
                    % self.emitter._linexpr(plan.init_form)))
        out.append((0, "_bd = %s"
                    % self.emitter._linexpr(plan.bound_form)))
        if step > 0:
            out.append((0, "_d = _bd - _i0"))
        else:
            out.append((0, "_d = _i0 - _bd"))
        out.append((0, "_t = 0 if _d < 0 else _d // %d + 1" % abs(step)))
        out.append((0, "if _t and not (%d <= _t <= %d):"
                    % (_MIN_VECTOR_TRIP, _MAX_VECTOR_TRIP)))
        out.append((1, "return -1"))
        fuel = "%d * (_t + 1) + %d * _t" % (self.hdr_fuel, self.chain_fuel)
        out.append((0, "if _rt.steps + %s > _max_steps:" % fuel))
        out.append((1, "return -1"))

        self._build_body()

        if self.hazards or self.computes:
            out.append((0, "if _t:"))
            for text in self.hazards + self.computes:
                extra = 1 if text.startswith("    ") else 0
                out.append((1 + extra, text.lstrip()))
        out.append((0, "_rt.steps += %s" % fuel))
        out.append((0, "_counters.instructions += %d * (_t + 1) + %d * _t"
                    % (self.hdr_cost, self.chain_cost)))
        if self.n_checks:
            out.append((0, "_counters.checks += %d * _t" % self.n_checks))
        if self.n_phis:
            out.append((0, "_counters.phis += %d * _t" % self.n_phis))
        fold: List[str] = []
        if self.reductions:
            # replay the accumulator chain as a sequential fold over the
            # already-vectorized operands: per element this performs the
            # exact add/sub sequence of one scalar iteration, so the
            # result is bit-identical to the scalar loop
            expr = "_acc"
            for i, (oper, val, kind) in enumerate(self.reductions):
                if kind in ("const", "outer"):
                    elem = val  # statically scalar: broadcasts as-is
                else:
                    fl = "_fl%d" % i
                    fold.append("%s = %s.tolist() if _np.ndim(%s) "
                                "else [%s] * _t" % (fl, val, val, val))
                    elem = "%s[_j]" % fl
                expr = "(%s %s %s)" % (expr,
                                       "+" if oper == "add" else "-", elem)
            fold.append("_acc = %s" % red_local)
            fold.append("for _j in range(_t):")
            fold.append("    _acc = %s" % expr)
            fold.append("%s = _acc" % red_local)
        if self.writebacks or fold:
            out.append((0, "if _t:"))
            for text in self.writebacks + fold:
                extra = 1 if text.startswith("    ") else 0
                out.append((1 + extra, text.lstrip()))
        out.append((0, "%s = _i0 + %d * _t" % (iv_local, step)))
        out.append((0, "%s = False" % cmp_local))
        out.append((0, "return _t"))
        return out

    def _build_body(self) -> None:
        store_descs: List[Tuple[_Op, str, str]] = []
        access_descs: List[Tuple[_Op, str, str]] = []
        loaded: List[Tuple[str, List[LinearExpr], str]] = []
        for pos, op in enumerate(self.plan.ops):
            if op.kind == "skip":
                continue
            if op.kind == "check":
                delta = op.form.coefficient(self.plan.iv_name) \
                    * self.plan.step
                first = self._tmp("k")
                self.hazards.append("%s = %s"
                                    % (first, self._affine(op.form)))
                if delta == 0:
                    self.hazards.append("if %s > %d:" % (first, op.bound))
                else:
                    last = self._tmp("k")
                    self.hazards.append("%s = %s + %d * (_t - 1)"
                                        % (last, first, delta))
                    big = last if delta > 0 else first
                    self.hazards.append("if %s > %d:" % (big, op.bound))
                self.hazards.append("    return -1")
            elif op.kind == "load":
                if op.forwarded is not None:
                    if op.forwarded[0] == "vec":
                        self._vec_names[op.dest] = \
                            self._vec_names[op.forwarded[1]]
                    continue  # value comes from the matching store
                prior = next((vec for arr, dims, vec in loaded
                              if arr == op.array and dims == op.dims),
                             None)
                if prior is not None:
                    # repeat load of the same elements: any store in
                    # between either forwarded (equal descriptor) or is
                    # disjoint (hazard-checked), so the value is shared
                    self._vec_names[op.dest] = prior
                    continue
                bname, cname = self._descriptor(op)
                access_descs.append((op, bname, cname))
                dest = self._tmp("x")
                prefix = self.emitter.array_prefix[op.array]
                # under ndarray storage _vload returns a VIEW.  Views
                # are only dereferenced in computes (which all run
                # before any writeback) -- except when the raw view
                # itself is a store's source.  That writeback is only
                # hazardous if an overlapping store (same array, equal
                # descriptor: the one pair the disjointness hazard
                # deliberately skips) writes back first, so copy
                # exactly then.
                overlap = [i for i, t in enumerate(self.plan.ops)
                           if i > pos and t.kind == "store"
                           and t.array == op.array and t.dims == op.dims]
                dests = {o.dest for o in self.plan.ops
                         if o.kind == "load" and o.forwarded is None
                         and o.array == op.array and o.dims == op.dims}
                feeds = [i for i, t in enumerate(self.plan.ops)
                         if t.kind == "store" and t.src[0] == "vec"
                         and t.src[1] in dests]
                copy = bool(overlap) and any(f > overlap[0] for f in feeds)
                c_val = int(cname) if cname.lstrip("-").isdigit() else None
                if c_val == 0:
                    # invariant element: a Python float broadcasts
                    # (identical to _vload's c == 0 branch)
                    self.computes.append("%s = float(%s_data[%s])"
                                         % (dest, prefix, bname))
                elif c_val is not None and c_val > 0:
                    # static positive step: slice inline, no helper
                    # call (the _NUMPY_STORAGE prologue guard already
                    # rejected list storage)
                    fast = "%s_data[%s:%s + %d * _t:%d]" \
                        % (prefix, bname, bname, c_val, c_val)
                    if copy:
                        fast += ".copy()"
                    self.computes.append("%s = %s" % (dest, fast))
                else:
                    self.computes.append("%s = _vload(%s_data, %s, %s, _t%s)"
                                         % (dest, prefix, bname, cname,
                                            ", 1" if copy else ""))
                self._vec_names[op.dest] = dest
                loaded.append((op.array, op.dims, dest))
            elif op.kind == "store":
                bname, cname = self._descriptor(op)
                c_val = int(cname) if cname.lstrip("-").isdigit() else None
                if c_val is None:
                    self.hazards.append("if %s == 0:" % cname)
                    self.hazards.append("    return -1")
                elif c_val == 0:
                    # an invariant store collapses t writes into one --
                    # never vectorizable
                    self.hazards.append("return -1")
                store_descs.append((op, bname, cname))
                access_descs.append((op, bname, cname))
                value = self._tmp("w")
                self.computes.append("%s = %s"
                                     % (value, self._materialize(op.src)))
                prefix = self.emitter.array_prefix[op.array]
                if c_val is not None and c_val > 0:
                    self.writebacks.append(
                        "%s_data[%s:%s + %d * _t:%d] = %s"
                        % (prefix, bname, bname, c_val, c_val, value))
                else:
                    self.writebacks.append("_vstore(%s_data, %s, %s, _t, %s)"
                                           % (prefix, bname, cname, value))
            elif op.kind == "red":
                # the non-acc operand is computed vectorized (bit-equal
                # to the scalar elementwise ops); the accumulator chain
                # itself is replayed by render() as a sequential fold
                val = self._materialize(op.operands[0])
                if not val.isidentifier() \
                        and op.operands[0][0] not in ("const", "outer"):
                    name = self._tmp("x")
                    self.computes.append("%s = %s" % (name, val))
                    val = name
                self.reductions.append((op.op, val, op.operands[0][0]))
            elif op.kind in ("bin", "un"):
                dest = self._tmp("x")
                texts = [self._materialize(d) for d in op.operands]
                if op.kind == "un":
                    expr = "(-%s)" % texts[0] if op.op == "neg" \
                        else "abs(%s)" % texts[0]
                elif op.op == "div":
                    dv = self._tmp("dv")
                    self.computes.append("%s = %s" % (dv, texts[1]))
                    self.computes.append("if not _np.all(%s):" % dv)
                    self.computes.append("    return -1")
                    expr = "(%s / %s)" % (texts[0], dv)
                else:
                    sym = {"add": "+", "sub": "-", "mul": "*"}[op.op]
                    expr = "(%s %s %s)" % (texts[0], sym, texts[1])
                self.computes.append("%s = %s" % (dest, expr))
                self._vec_names[op.dest] = dest
        # a store must never alias another access through a *different*
        # descriptor (equal descriptors are order-safe by injectivity)
        seen = set()
        for sop, sb, sc in store_descs:
            for aop, ab, ac in access_descs:
                if aop is sop or aop.array != sop.array \
                        or aop.dims == sop.dims:
                    continue
                key = tuple(sorted((sb, ab)))
                if key in seen:
                    continue
                seen.add(key)
                self.hazards.append("if not _vdis(%s, %s, %s, %s, _t):"
                                    % (sb, sc, ab, ac))
                self.hazards.append("    return -1")


# ---------------------------------------------------------------------------
# module translation
# ---------------------------------------------------------------------------

def _emit_function(module: Module,
                   function: Function) -> Tuple[str, Optional[str]]:
    """One function's text: ``(flat text, None)``, or the threaded
    emitter's text and why the structurer rejected the function.

    SSA input gets its vector loops planned, then is destructed in
    place.
    """
    plans = {}
    if any(block.phis() for block in function.blocks):
        plans = _plan_loops(function)
        destruct_ssa(function)
    try:
        return _FlatEmitter(module, function, plans).emit(), None
    except (_Unsupported, RecursionError) as error:
        # the structurer recurses along the CFG, so a function too
        # long for it runs threaded too: same generated module, shared
        # fn_ naming, so threaded and flat functions call each other
        return _FunctionEmitter(module, function).emit(), str(error)


def _link(module: Module, emitted: List[Tuple[str, Optional[str]]]
          ) -> Tuple[str, CodeType]:
    """Join and compile the module's function texts (``emitted`` in
    module order, as :func:`_emit_function` returns them).

    The module is compiled once.  Only when that compile fails is each
    flat text compiled alone; one that fails falls back to the threaded
    emitter, its ``emitted`` entry gets the compile error as its
    reason, and the module is compiled again.
    """
    try:
        return _join(emitted)
    except SyntaxError:
        pass
    for index, function in enumerate(module):
        text, reason = emitted[index]
        if reason is None:
            try:
                compile(text, "<repro-specialized>", "exec")
            except SyntaxError as error:
                emitted[index] = (_FunctionEmitter(module, function).emit(),
                                  str(error))
    return _join(emitted)


def _join(emitted: List[Tuple[str, Optional[str]]]) -> Tuple[str, CodeType]:
    pieces = [_PRELUDE, _SPECIALIZED_PRELUDE]
    pieces += [text for text, _ in emitted]
    # ndarray-backed REAL storage is only sound when every emitted
    # function pins its loads to Python floats -- i.e. no threaded
    # fallback anywhere in the module (arrays cross function
    # boundaries as array params)
    all_flat = all(reason is None for _, reason in emitted)
    pieces.append("_NUMPY_STORAGE = _np is not None and %r" % all_flat)
    source = "\n\n".join(pieces)
    return source, _compile(source)


class CompiledSpecializedModule(CompiledPythonModule):
    """A module translated to flat + vectorized Python.

    Accepts SSA input (plans vector loops, then destructs **in
    place** -- callers hand a private clone, as elsewhere in the
    pipeline) or already-destructed input (flat source only, no vector
    plans).  ``source`` may come from the per-engine cache.
    """

    @staticmethod
    def _translate(module: Module) -> Tuple[str, CodeType]:
        return _link(module, [_emit_function(module, function)
                              for function in module])


def compile_to_specialized(module: Module) -> CompiledSpecializedModule:
    """Translate a module (SSA or phi-free) to flat/vectorized Python."""
    faults.fire("backend.compile")
    return CompiledSpecializedModule(module)
