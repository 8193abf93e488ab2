"""SPEC: speculative convex-hull preheader guards with checked fall-back.

Kolte & Wolfe's seven placement schemes never speculate: a check is
hoisted only when it is provably redundant or anticipatable.  SPEC
goes one step further, in the style of deoptimization guards
(ArkCompiler's ``DeoptimizeIf``) and CHOP's convex-hull region guards:
for each qualifying innermost counted loop it merges every
not-fully-redundant check *family* into a single preheader guard over
the family's [min, max] subscript envelope, and *versions* the loop --

* the **fast path** is the original loop with every covered
  unconditional check deleted (zero per-iteration checks for covered
  families);
* the **slow path** is a clone of the loop with all checks intact,
  exactly what the ``NI`` scheme would execute;
* a :class:`~repro.ir.instructions.SpecGuard` in the preheader
  evaluates trip>=1 pre-guards and the envelope, and a ``CondJump``
  dispatches.  A guard miss *never traps* -- it falls back to the
  checked clone, so trap-equivalence with the naive program is exact.

The canonical-form machinery makes the envelope computation free:
checks over ``a(i)``, ``a(i+1)``, ``a(i-2)`` all canonicalize to the
family ``i <= bound - offset``, so the family's *minimum bound* member
is the convex hull of every offset, and one guard at the extreme
iteration value (loop-limit substitution, section 3.3) covers the
whole family for the whole iteration space.  The guard, the
substitution and the last-index / trip-count arithmetic are LLS's own
:class:`~repro.checks.preheader.LoopLimits`; SPEC materializes only
when it versions a loop.

Families the envelope cannot express (range-expression not affine in
the loop index, symbols not evaluable in the preheader) are left
untouched and degrade to ordinary LLS placement, which the optimizer
runs right after this pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.affine import AffineEnv
from ..analysis.loops import Loop, LoopForest
from ..induction.analysis import LoopIVs
from ..induction.tripcount import LoopIV
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Check, CondJump, Guard, Phi, SpecGuard,
                               clone_instruction)
from ..ir.types import BOOL
from ..ir.values import Var
from ..symbolic import LinearExpr
from .canonical import CanonicalCheck, make_guard
from .preheader import NEVER_RUNS, UNPROVABLE, LoopLimits


class _Envelope:
    """One covered family: its guard (None = compile-time true) and the
    body checks the guard subsumes."""

    def __init__(self, guard: Optional[CanonicalCheck],
                 checks: List[Check]) -> None:
        self.guard = guard
        self.checks = checks


class SpeculativeVersioner:
    """Versions qualifying innermost counted loops under SPEC.

    ``ivs`` maps each loop of ``forest`` to its counted-loop
    description (:func:`repro.induction.analysis.loop_ivs`).
    """

    def __init__(self, function: Function, env: AffineEnv,
                 forest: LoopForest, ivs: LoopIVs) -> None:
        self.function = function
        self.forest = forest
        self.ivs = ivs
        #: loops actually versioned
        self.versioned = 0
        #: headers of the checked slow-path clones; the preheader
        #: inserter skips these loops so the slow path stays NI-exact
        self.slow_headers: Set[str] = set()
        self.limits = LoopLimits(function, env, "spec")

    # -- driver ------------------------------------------------------------

    def run(self) -> int:
        for loop in self.forest.inner_to_outer():
            if loop.children:
                continue  # versioning clones whole loops: innermost only
            self._try_version(loop)
        return self.versioned

    # -- qualification -----------------------------------------------------

    def _try_version(self, loop: Loop) -> None:
        iv = self.ivs.get(loop)
        if iv is None:
            return
        exits = loop.exit_edges()
        if len(exits) != 1:
            return
        inside, exit_block = exits[0]
        if inside is not loop.header:
            return
        preds = self.function.predecessors(exit_block)
        if len(preds) != 1 or preds[0] is not loop.header:
            return  # merge-phi construction needs a private exit block
        pre_guard = self.limits.guard(loop, iv)
        if pre_guard is NEVER_RUNS or pre_guard is UNPROVABLE:
            return
        envelopes = self._family_envelopes(loop, iv)
        if not envelopes:
            return  # nothing coverable: plain LLS handles this loop
        self._version(loop, iv, exit_block, pre_guard, envelopes)

    def _family_envelopes(self, loop: Loop,
                          iv: LoopIV) -> List[_Envelope]:
        """Group the loop-body unconditional checks by family and keep
        every family whose convex-hull guard is preheader-expressible.

        Header checks are excluded: a header check also executes on the
        exiting iteration, which the envelope (taken over the body's
        iteration space) does not cover.
        """
        families: Dict[LinearExpr, List[Check]] = {}
        for block in self.function.blocks:
            if block not in loop.blocks or block is loop.header:
                continue
            for inst in block.instructions:
                if isinstance(inst, Check) and not inst.is_conditional:
                    canonical = CanonicalCheck.of(inst)
                    families.setdefault(canonical.linexpr,
                                        []).append(inst)
        envelopes: List[_Envelope] = []
        for linexpr in sorted(families, key=str):
            checks = families[linexpr]
            bound = min(CanonicalCheck.of(c).bound for c in checks)
            guard = self._envelope_guard(loop, iv,
                                         CanonicalCheck(linexpr, bound))
            if guard is UNPROVABLE:
                continue
            envelopes.append(_Envelope(guard, checks))
        return envelopes

    def _envelope_guard(self, loop: Loop, iv: LoopIV,
                        strongest: CanonicalCheck):
        """The substituted extreme of the family's strongest member, or
        None when it is compile-time true, or UNPROVABLE."""
        guard = self.limits.substitute(loop, iv, strongest)
        if guard is None:
            return UNPROVABLE
        verdict = guard.evaluate_compile_time()
        if verdict is True:
            return None  # provably in range: delete with no guard
        if verdict is False:
            # the envelope always misses: versioning would only ever
            # run the slow path, so leave the family to LLS
            return UNPROVABLE
        if not self.limits.evaluable(guard, loop):
            return UNPROVABLE
        return guard

    def _guard_of(self, canonical: CanonicalCheck) -> Guard:
        return make_guard(canonical, self.limits.operands(canonical))

    # -- versioning --------------------------------------------------------

    def _version(self, loop: Loop, iv: LoopIV, exit_block: BasicBlock,
                 pre_guard: Optional[CanonicalCheck],
                 envelopes: List[_Envelope]) -> None:
        function = self.function
        preheader = self.forest.get_or_create_preheader(loop)
        self.versioned += 1
        suffix = ".slow%d" % self.versioned

        # 1. materialize non-unit-step extremes
        env_guards = self.limits.materialize(
            preheader, iv, [e.guard for e in envelopes if e.guard is not None])

        # 2. clone the loop: fresh blocks, fresh names for inside defs;
        # values defined outside keep their names (they dominate the
        # clone through the preheader)
        ordered = [b for b in function.blocks if b in loop.blocks]
        block_map: Dict[BasicBlock, BasicBlock] = {
            block: function.new_block("specslow") for block in ordered}
        defs: Dict[str, Var] = {}
        for block in ordered:
            for inst in block.instructions:
                dest = inst.def_var()
                if dest is not None:
                    defs[dest.name] = dest
        rename = {Var(name): var.with_name(name + suffix)
                  for name, var in defs.items()}
        for var in rename.values():
            function.declare_scalar(var)
        for block in ordered:
            clone = block_map[block]
            for inst in block.instructions:
                clone.append(clone_instruction(inst, rename, block_map))
        slow_header = block_map[loop.header]
        self.slow_headers.add(slow_header.name)

        # 3. delete the covered checks from the fast loop
        for envelope in envelopes:
            for check in envelope.checks:
                check.block.remove(check)

        # 4. the dispatch: SpecGuard + CondJump in the preheader
        pre_guards = [] if pre_guard is None else \
            [self._guard_of(pre_guard)]
        guards = [self._guard_of(g) for g in env_guards]
        dest = self.limits.temp(BOOL)
        preheader.insert_before_terminator(
            SpecGuard(dest, pre_guards, guards))
        terminator = preheader.terminator
        preheader.remove(terminator)
        preheader.append(CondJump(dest, loop.header, slow_header))

        # 5. exit-block surgery: the slow clone joins at the same exit
        clone_blocks = set(block_map.values())
        for phi in exit_block.phis():
            value = phi.value_for(loop.header)
            if isinstance(value, Var) and value.name in defs:
                value = rename[Var(value.name)]
            phi.incoming.append((slow_header, value))
        self._merge_outside_uses(loop, exit_block, slow_header,
                                 clone_blocks, defs, rename, suffix)

    def _merge_outside_uses(self, loop: Loop, exit_block: BasicBlock,
                            slow_header: BasicBlock,
                            clone_blocks: Set[BasicBlock],
                            defs: Dict[str, Var],
                            rename: Dict[Var, Var], suffix: str) -> None:
        """Loop-defined values used past the exit flow through fresh
        merge phis (``v`` from the fast path, ``v.slowN`` from the
        clone).  Only header definitions can reach here in valid SSA --
        the single exit edge leaves the header -- so the merge phi's
        fast incoming always dominates its edge."""
        function = self.function
        merges: Dict[str, Var] = {}

        def merge_var(name: str) -> Var:
            var = merges.get(name)
            if var is None:
                old = defs[name]
                var = old.with_name(name + suffix + ".merge")
                merged = Phi(var, [(loop.header, old),
                                   (slow_header, rename[Var(name)])])
                exit_block.insert(0, merged)
                function.declare_scalar(var)
                merges[name] = var
            return var

        exit_phis = set(id(p) for p in exit_block.phis())
        for block in list(function.blocks):
            if block in loop.blocks or block in clone_blocks:
                continue
            # snapshot: merge_var inserts phis into exit_block mid-walk
            for inst in list(block.instructions):
                if id(inst) in exit_phis:
                    continue  # already wired to both paths above
                if isinstance(inst, Phi):
                    for idx, (pred, value) in enumerate(inst.incoming):
                        if isinstance(value, Var) and \
                                value.name in defs and \
                                pred not in loop.blocks and \
                                pred not in clone_blocks:
                            inst.incoming[idx] = (pred,
                                                  merge_var(value.name))
                    continue
                used = {v.name for v in inst.uses()
                        if isinstance(v, Var) and v.name in defs}
                if used:
                    inst.replace_uses({Var(name): merge_var(name)
                                       for name in used})
