"""IR verifier: structural invariants checked between passes.

Catching malformed IR early (rather than as interpreter crashes or
silent wrong answers) is what makes the multi-pass optimizer pipeline
debuggable, so every pass-level test runs the verifier on its output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import IRError
from .basicblock import BasicBlock
from .function import Function, Module
from .instructions import Check, Instruction, Phi, SpecGuard
from .values import Var


def verify_function(function: Function) -> None:
    """Raise :class:`IRError` when ``function`` violates an IR invariant."""
    if function.entry is None:
        raise IRError("function %s has no entry block" % function.name)
    if function.entry not in function.blocks:
        raise IRError("entry of %s is not in the block list" % function.name)
    names = set()
    for block in function.blocks:
        if block.name in names:
            raise IRError("duplicate block name %r" % block.name)
        names.add(block.name)
        _verify_block(function, block)
    preds = function.predecessor_map()
    for block in function.blocks:
        pred_set = preds[block]
        for phi in block.phis():
            if block is function.entry:
                raise IRError(
                    "phi %s in entry block %s: no incoming edge can "
                    "supply its value" % (phi, block.name))
            phi_blocks = [blk for blk, _ in phi.incoming]
            for blk in phi_blocks:
                if blk not in function.blocks:
                    raise IRError(
                        "phi %s in %s names incoming block %s which is "
                        "not in the function" % (phi, block.name, blk.name))
            if len(set(id(b) for b in phi_blocks)) != len(phi_blocks):
                raise IRError("phi %s has duplicate incoming blocks" % phi)
            if len(phi_blocks) != len(pred_set):
                raise IRError(
                    "phi %s in %s has %d incoming values for %d predecessors"
                    % (phi, block.name, len(phi_blocks), len(pred_set)))
            if set(id(b) for b in phi_blocks) != set(id(b) for b in pred_set):
                raise IRError(
                    "phi %s in %s disagrees with predecessors %s"
                    % (phi, block.name, sorted(b.name for b in pred_set)))
    _verify_dominance(function)


def _verify_block(function: Function, block: BasicBlock) -> None:
    if block.function is not function:
        raise IRError("block %s not attached to %s" % (block.name, function.name))
    if not block.instructions:
        raise IRError("block %s is empty" % block.name)
    term = block.instructions[-1]
    if not term.is_terminator:
        raise IRError("block %s does not end in a terminator" % block.name)
    seen_non_phi = False
    for inst in block.instructions:
        if inst.block is not block:
            raise IRError("instruction %s has a stale block pointer" % inst)
        if inst.is_terminator and inst is not term:
            raise IRError("block %s has a terminator in the middle" % block.name)
        if isinstance(inst, Phi):
            if seen_non_phi:
                raise IRError("phi %s after non-phi in %s" % (inst, block.name))
        else:
            seen_non_phi = True
        if isinstance(inst, Check):
            _verify_check(inst)
        if isinstance(inst, SpecGuard):
            _verify_spec_guard(inst)
    for succ in term.successors():
        if succ not in function.blocks:
            raise IRError("block %s targets unknown block %s"
                          % (block.name, succ.name))


def _verify_check(check: Check) -> None:
    if check.linexpr.const != 0:
        raise IRError("check %s is not canonical (nonzero constant term)"
                      % check)
    missing = set(check.linexpr.symbols()) - set(check.operands)
    if missing:
        raise IRError("check %s missing operand vars %s"
                      % (check, sorted(missing)))
    for sym, var in check.operands.items():
        if var.name != sym:
            raise IRError("check %s operand %r bound to mismatched var %r"
                          % (check, sym, var.name))
    for guard in check.guards:
        if guard.linexpr.const != 0:
            raise IRError("check guard of %s is not canonical" % check)
        for sym, var in guard.operands.items():
            if var.name != sym:
                raise IRError(
                    "check guard %s operand %r bound to mismatched var %r"
                    % (check, sym, var.name))


def _verify_spec_guard(inst: SpecGuard) -> None:
    for kind, guards in (("pre", inst.pre_guards), ("env", inst.guards)):
        for guard in guards:
            if guard.linexpr.const != 0:
                raise IRError("spec-guard %s %s-guard is not canonical "
                              "(nonzero constant term)" % (inst, kind))
            missing = set(guard.linexpr.symbols()) - set(guard.operands)
            if missing:
                raise IRError("spec-guard %s %s-guard missing operand "
                              "vars %s" % (inst, kind, sorted(missing)))
            for sym, var in guard.operands.items():
                if var.name != sym:
                    raise IRError(
                        "spec-guard %s %s-guard operand %r bound to "
                        "mismatched var %r" % (inst, kind, sym, var.name))


def _collect_single_defs(
        function: Function) -> Dict[str, Tuple[BasicBlock, int]]:
    """Map var name -> (block, index) of its unique definition.

    Raises when some variable is defined more than once: the caller
    only asks for this map on functions claiming SSA form.
    """
    defs: Dict[str, Tuple[BasicBlock, int]] = {}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            dest = inst.def_var()
            if dest is None:
                continue
            if dest.name in defs:
                raise IRError(
                    "SSA function %s defines %s more than once"
                    % (function.name, dest.name))
            defs[dest.name] = (block, index)
    return defs


def _verify_dominance(function: Function) -> None:
    """Single-def and def-dominates-use, for functions in SSA form.

    Gated on ``function.ssa_form`` (set by SSA construction, cleared by
    destruction): pre-SSA IR legally reads a variable before defining
    it (the read defaults to zero), so the dominance rule only holds
    once names are versioned.  In SSA form every variable must have at
    most one defining instruction and every use must be dominated by
    its definition (for a phi use, the definition must dominate the
    incoming predecessor).  Variables with *no* defining instruction
    are skipped -- parameters, and reads before any write, which keep
    their unversioned name.
    """
    if not function.ssa_form:
        return
    defs = _collect_single_defs(function)
    param_names = {p.name for p in function.params}

    from ..analysis.dominance import DominatorTree

    domtree = DominatorTree(function)
    reachable = set(id(b) for b in domtree.rpo)

    def check_use(value, use_block: BasicBlock, use_index: int,
                  inst: Instruction) -> None:
        if not isinstance(value, Var):
            return
        name = value.name
        if name in param_names or name not in defs:
            return
        def_block, def_index = defs[name]
        if id(def_block) not in reachable:
            raise IRError(
                "use of %s in %s (%s) reaches a definition in "
                "unreachable block %s"
                % (name, use_block.name, inst, def_block.name))
        if def_block is use_block:
            if def_index < use_index:
                return
            raise IRError("use of %s in %s (%s) precedes its definition"
                          % (name, use_block.name, inst))
        if domtree.strictly_dominates(def_block, use_block):
            return
        raise IRError(
            "definition of %s in %s does not dominate its use in %s (%s)"
            % (name, def_block.name, use_block.name, inst))

    for block in function.blocks:
        if id(block) not in reachable:
            continue  # dominance is undefined off the reachable CFG
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                # a phi use is conceptually evaluated at the end of the
                # incoming edge, so the definition must dominate the
                # *predecessor*, not the phi's own block
                for pred, value in inst.incoming:
                    check_use(value, pred, len(pred.instructions), inst)
                continue
            for value in inst.uses():
                check_use(value, block, index, inst)


def verify_module(module: Module) -> None:
    """Verify every function, plus module-level call-site consistency."""
    for function in module:
        verify_function(function)
    _verify_calls(module)


def _verify_calls(module: Module) -> None:
    from .instructions import Call

    for function in module:
        for inst in function.instructions():
            if not isinstance(inst, Call):
                continue
            callee = module.lookup(inst.callee)
            if len(inst.args) != len(callee.params):
                raise IRError(
                    "call to %s passes %d scalars, expected %d"
                    % (inst.callee, len(inst.args), len(callee.params)))
            if len(inst.array_args) != len(callee.array_params):
                raise IRError(
                    "call to %s passes %d arrays, expected %d"
                    % (inst.callee, len(inst.array_args),
                       len(callee.array_params)))
            missing: List[str] = [name for name in inst.array_args
                                  if name not in function.arrays]
            if missing:
                raise IRError("call to %s passes undeclared arrays %s"
                              % (inst.callee, missing))
