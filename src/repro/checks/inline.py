"""Subroutine inlining: the interprocedural enabler for check motion.

Every placement scheme in this reproduction works one function at a
time, so a check that is redundant *across* a call boundary — the
caller checks ``a(i)`` and the callee checks the same subscript again —
is invisible to all of them.  Inlining clones the callee body into the
caller ahead of check canonicalization, turning cross-call redundancy
into the ordinary intra-procedural kind that INX/LLS/SPEC/LO already
eliminate.

The pass runs on the *lowered, pre-SSA* module (between ``lower`` and
``rotate``/``ssa`` in :func:`~repro.pipeline.driver.run_frontend`), so
SSA construction renames the cloned scalars like any other code and no
phi surgery is needed here.

Binding rules (chosen to maximize check-family unification):

* a scalar argument that is an integer constant is substituted directly
  into the clone — :meth:`Check.replace_uses` folds it into the range
  constant, so the cloned checks land in the caller's own families;
* a scalar argument that is a caller variable of the parameter's type
  binds by *aliasing* when the callee never assigns the parameter — the
  cloned checks then mention the caller's symbol (``a(1:n)`` in the
  callee meets ``n`` in the caller);
* anything else (type-changing bindings, parameters the callee
  assigns) gets a fresh caller scalar plus one binding instruction with
  the same int/real coercion the interpreter applies at frame entry;
* array parameters are renamed to the caller's arrays (by-reference
  semantics; the callee's declared dims keep governing the cloned
  checks, exactly as they governed the callee's own checks).

Eligibility is conservative: a callee with a local (non-parameter)
array is never inlined — the interpreter zero-fills locals per call,
which is observable — and recursive cycles are never entered.  A
size/depth budget bounds code growth; calls left behind keep their
ordinary :class:`Call` semantics, so inlining is always a refinement,
never a requirement.

Every cloned :class:`Check` is stamped with a ``context`` naming the
callee and the call line, which the execution engines append to trap
messages — a trap inside an inlined region reports ``in smooth (call
at line 12)``, not the clone's synthetic block label.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Set, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function, Module
from ..ir.instructions import (Assign, Call, Check, Instruction, Jump,
                               Return, UnOp)
from ..ir.types import INT, REAL
from ..ir.values import Const, Value, Var

#: Default budget: how many transitive inline levels one region may
#: carry.  Callees are processed before callers, so the depth of a
#: clone is known exactly when the caller considers it.
DEFAULT_MAX_DEPTH = 3

#: Default budget: a caller stops inlining once it would grow past this
#: many instructions.
DEFAULT_MAX_SIZE = 4000

#: Default budget: callees larger than this are never cloned.
DEFAULT_MAX_CALLEE_SIZE = 800


class InlineStats:
    """What one :func:`inline_module` run did (trace/debug surface)."""

    def __init__(self) -> None:
        self.inlined_calls = 0
        self.skipped_recursive = 0
        self.skipped_local_arrays = 0
        self.skipped_budget = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "inlined_calls": self.inlined_calls,
            "skipped_recursive": self.skipped_recursive,
            "skipped_local_arrays": self.skipped_local_arrays,
            "skipped_budget": self.skipped_budget,
        }

    def __repr__(self) -> str:
        return ("InlineStats(inlined=%d, recursive=%d, local_arrays=%d, "
                "budget=%d)" % (self.inlined_calls, self.skipped_recursive,
                                self.skipped_local_arrays,
                                self.skipped_budget))


def _function_size(function: Function) -> int:
    return sum(len(block.instructions) for block in function.blocks)


def _recursive_functions(module: Module) -> Set[str]:
    """Names of functions on call-graph cycles (incl. self-recursion)."""
    edges: Dict[str, Set[str]] = {}
    for function in module:
        callees = {inst.callee for inst in function.instructions()
                   if isinstance(inst, Call)}
        edges[function.name] = {c for c in callees if c in module.functions}
    recursive: Set[str] = set()
    for start in edges:
        # is `start` reachable from any of its own callees?
        stack = list(edges[start])
        seen: Set[str] = set()
        while stack:
            name = stack.pop()
            if name == start:
                recursive.add(start)
                break
            if name in seen:
                continue
            seen.add(name)
            stack.extend(edges.get(name, ()))
    return recursive


def _callee_order(module: Module, recursive: Set[str]) -> List[Function]:
    """Functions in callees-before-callers order (cycles excluded from
    the ordering constraint; they are never inlined anyway)."""
    order: List[Function] = []
    visiting: Set[str] = set()
    done: Set[str] = set()

    def visit(name: str) -> None:
        if name in done or name in visiting:
            return
        visiting.add(name)
        function = module.functions[name]
        for inst in function.instructions():
            if isinstance(inst, Call) and inst.callee in module.functions:
                visit(inst.callee)
        visiting.discard(name)
        done.add(name)
        order.append(function)

    for name in module.functions:
        visit(name)
    return order


class _Inliner:
    """State of one inlining run over a module."""

    def __init__(self, module: Module, max_depth: int, max_size: int,
                 max_callee_size: int) -> None:
        self.module = module
        self.max_depth = max_depth
        self.max_size = max_size
        self.max_callee_size = max_callee_size
        self.stats = InlineStats()
        self.recursive = _recursive_functions(module)
        #: transitive inline levels already nested inside each function
        self.depth: Dict[str, int] = {}
        self._site = 0

    # -- eligibility ----------------------------------------------------

    def _eligible(self, caller: Function, call: Call) -> Optional[Function]:
        callee = self.module.functions.get(call.callee)
        if callee is None or callee is caller:
            return None
        if callee.name in self.recursive or caller.name in self.recursive:
            self.stats.skipped_recursive += 1
            return None
        local_arrays = set(callee.arrays) - set(callee.array_params)
        if local_arrays:
            # the interpreter zero-fills local arrays per call; cloning
            # one instance into the caller would be observable
            self.stats.skipped_local_arrays += 1
            return None
        if self.depth.get(callee.name, 0) + 1 > self.max_depth:
            self.stats.skipped_budget += 1
            return None
        callee_size = _function_size(callee)
        if callee_size > self.max_callee_size or \
                _function_size(caller) + callee_size > self.max_size:
            self.stats.skipped_budget += 1
            return None
        return callee

    # -- per-function driver --------------------------------------------

    def run_function(self, caller: Function) -> None:
        cloned_blocks: Set[str] = set()
        while True:
            site = self._find_site(caller, cloned_blocks)
            if site is None:
                break
            block, index, callee = site
            self._splice(caller, block, index, callee, cloned_blocks)
            self.stats.inlined_calls += 1
            self.depth[caller.name] = max(
                self.depth.get(caller.name, 0),
                self.depth.get(callee.name, 0) + 1)

    def _find_site(self, caller: Function, cloned_blocks: Set[str]
                   ) -> Optional[Tuple[BasicBlock, int, Function]]:
        for block in caller.blocks:
            if block.name in cloned_blocks:
                # a residual call inside an already-inlined region kept
                # its Call semantics because the callee's own pass
                # declined it (budget); re-inlining it here would dodge
                # that decision
                continue
            for index, inst in enumerate(block.instructions):
                if not isinstance(inst, Call):
                    continue
                callee = self._eligible(caller, inst)
                if callee is not None:
                    return block, index, callee
        return None

    # -- splicing -------------------------------------------------------

    def _splice(self, caller: Function, block: BasicBlock, index: int,
                callee: Function, cloned_blocks: Set[str]) -> None:
        call = block.instructions[index]
        site = self._site
        self._site += 1
        clone = pickle.loads(pickle.dumps(callee,
                                          pickle.HIGHEST_PROTOCOL))

        # split the caller block: [0:index) stays, the call disappears,
        # the rest (incl. the terminator) moves to a continuation block
        cont = caller.new_block("inl_cont")
        tail = block.instructions[index + 1:]
        del block.instructions[index:]
        for inst in tail:
            inst.block = cont
        cont.instructions = tail

        var_subst, array_map = self._bind_args(caller, block, call, clone,
                                               site)
        context = "in %s (call at line %d)" % (callee.name, call.line)
        self._rewrite_clone(caller, clone, var_subst, array_map, context,
                            cont)

        for nb in clone.blocks:
            nb.name = "inl%d_%s_%s" % (site, callee.name, nb.name)
            nb.function = caller
            caller.blocks.append(nb)
            cloned_blocks.add(nb.name)
        block.append(Jump(clone.entry))

    def _bind_args(self, caller: Function, block: BasicBlock, call: Call,
                   clone: Function, site: int
                   ) -> Tuple[Dict[Var, Value], Dict[str, str]]:
        assigned = {inst.def_var().name for inst in clone.instructions()
                    if inst.def_var() is not None}
        var_subst: Dict[Var, Value] = {}
        for param, arg in zip(clone.params, call.args):
            if isinstance(arg, Const):
                value = (float(arg.value) if param.type is REAL
                         else int(arg.value))
                var_subst[Var(param.name, param.type)] = Const(value)
                continue
            if isinstance(arg, Var) and arg.type is param.type and \
                    param.name not in assigned:
                # alias: the cloned checks mention the caller's symbol,
                # joining the caller's own check families
                var_subst[Var(param.name, param.type)] = arg
                continue
            fresh = Var("%s.i%d" % (param.name, site), param.type)
            caller.declare_scalar(fresh)
            if arg.type is param.type:
                block.append(Assign(fresh, arg))
            elif param.type is REAL and arg.type is INT:
                block.append(UnOp(fresh, "itor", arg))
            else:
                block.append(UnOp(fresh, "rtoi", arg))
            var_subst[Var(param.name, param.type)] = fresh
        # every non-parameter scalar of the clone gets a fresh name
        param_names = {p.name for p in clone.params}
        for name, stype in clone.scalar_types.items():
            if name in param_names:
                continue
            fresh = Var("%s.i%d" % (name, site), stype)
            caller.declare_scalar(fresh)
            var_subst[Var(name, stype)] = fresh
        array_map = dict(zip(clone.array_params, call.array_args))
        return var_subst, array_map

    def _rewrite_clone(self, caller: Function, clone: Function,
                       var_subst: Dict[Var, Value],
                       array_map: Dict[str, str], context: str,
                       cont: BasicBlock) -> None:
        for nb in clone.blocks:
            for idx, inst in enumerate(nb.instructions):
                self._rewrite_def(inst, var_subst)
                inst.replace_uses(var_subst)
                self._rewrite_arrays(inst, array_map)
                if isinstance(inst, Check) and not inst.context:
                    # keep the innermost provenance on nested inlining
                    inst.context = context
                if isinstance(inst, Return):
                    jump = Jump(cont)
                    jump.block = nb
                    nb.instructions[idx] = jump

    @staticmethod
    def _rewrite_def(inst: Instruction, var_subst: Dict[Var, Value]) -> None:
        dest = inst.def_var()
        if dest is None:
            return
        replacement = var_subst.get(dest)
        if isinstance(replacement, Var):
            inst.dest = replacement  # type: ignore[attr-defined]

    @staticmethod
    def _rewrite_arrays(inst: Instruction,
                        array_map: Dict[str, str]) -> None:
        array = getattr(inst, "array", None)
        if isinstance(array, str) and array in array_map:
            inst.array = array_map[array]  # type: ignore[attr-defined]
        array_args = getattr(inst, "array_args", None)
        if array_args:
            inst.array_args = [  # type: ignore[attr-defined]
                array_map.get(name, name) for name in array_args]


def inline_module(module: Module,
                  max_depth: int = DEFAULT_MAX_DEPTH,
                  max_size: int = DEFAULT_MAX_SIZE,
                  max_callee_size: int = DEFAULT_MAX_CALLEE_SIZE
                  ) -> InlineStats:
    """Inline eligible calls throughout ``module`` (in place, pre-SSA).

    Functions are processed callees-first, so one pass per function
    yields full transitive inlining within the depth/size budget.
    Returns an :class:`InlineStats` describing what happened.
    """
    inliner = _Inliner(module, max_depth, max_size, max_callee_size)
    for function in _callee_order(module, inliner.recursive):
        inliner.run_function(function)
    return inliner.stats
