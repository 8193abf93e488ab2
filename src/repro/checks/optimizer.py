"""The five-step range-check optimizer (section 3 of the paper).

1. Construct the check implication graph (families + weighted edges).
2. Compute safe insertion points (anticipatability).
3. Insert checks per the chosen placement scheme: each scheme is a row
   of ``RangeCheckOptimizer.SCHEME_STEPS``, an ordered list of steps
   (the paper's NI / CS / LNI / SE / LI / LLS / ALL plus the MCM, VR,
   SPEC and LO extensions).
4. Compute available checks and eliminate redundant checks.
5. Eliminate (or trap) compile-time checks.

The optimizer runs on SSA form, one function at a time.  Checks may be
constructed from program expressions (PRX) or rewritten to induction
expressions (INX) first, and the implication machinery can be ablated
(Table 3's NI'/SE'/LLS' variants).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis.affine import AffineEnv, compute_affine_forms
from ..analysis.dominance import DominatorTree
from ..analysis.loops import LoopForest
from ..errors import IRError
from ..induction.analysis import InductionAnalysis, LoopIVs, loop_ivs
from ..induction.materialize import BasicVarMaterializer
from ..ir.function import Function, Module
from ..ir.instructions import Check
from ..ir.verify import verify_function
from .cig import CheckImplicationGraph, ImplicationStore
from .config import CheckKind, ImplicationMode, OptimizerOptions, Scheme
from .dataflow import CheckAnalysis, EdgeGen
from .eliminate import eliminate_redundant, fold_compile_time
from .family import universe_from_function
from .inx import rewrite_checks_to_inx
from .lcm import (apply_insertions, latest_insertions,
                  safe_earliest_insertions)
from .lospre import lospre_insertions
from .markstein import MarksteinInserter
from .preheader import PreheaderInserter
from .spec import SpeculativeVersioner
from .strengthen import strengthen_checks
from .valuerange import eliminate_by_value_range


class OptimizeStats:
    """Static counts collected while optimizing one function."""

    def __init__(self, function_name: str) -> None:
        self.function = function_name
        self.checks_before = 0
        self.checks_after = 0
        self.inserted = 0
        self.strengthened = 0
        self.eliminated = 0
        self.compile_time = 0
        self.inx_rewritten = 0
        #: checks discharged by the linear-inequality prover (a subset
        #: of ``eliminated``; the rest fell to the syntactic tier)
        self.proved = 0
        #: loops versioned by the SPEC scheme (fast/slow clones)
        self.speculated = 0
        #: always 0, since LO makes no per-fact cuts; it stays because
        #: perfbench reads it and the scheme-matrix golden records
        #: every field
        self.lospre_cuts = 0
        self.trap_reports: List[str] = []

    def merge(self, other: "OptimizeStats") -> None:
        """Accumulate another function's stats (for module totals)."""
        self.checks_before += other.checks_before
        self.checks_after += other.checks_after
        self.inserted += other.inserted
        self.strengthened += other.strengthened
        self.eliminated += other.eliminated
        self.compile_time += other.compile_time
        self.inx_rewritten += other.inx_rewritten
        self.proved += other.proved
        self.speculated += other.speculated
        self.lospre_cuts += other.lospre_cuts
        self.trap_reports.extend(other.trap_reports)

    def __repr__(self) -> str:
        return ("OptimizeStats(%s: %d -> %d static checks, +%d inserted)"
                % (self.function, self.checks_before, self.checks_after,
                   self.inserted))


def count_checks(function: Function) -> int:
    """Static number of check instructions in a function."""
    return sum(1 for inst in function.instructions()
               if isinstance(inst, Check))


class RangeCheckOptimizer:
    """Optimizes one SSA-form function under one configuration.

    Step 3 is data: :attr:`SCHEME_STEPS` lists each scheme's insertion
    steps in order (the INX rewrite goes first under ``CheckKind.INX``),
    and steps 4 and 5 then run for every scheme.  Before each step the
    previous step's analyses are dropped; each is built on its first
    read within the step, which every step makes before it edits the
    function.  A step that reads no loop analysis does not pay for one:
    the hoists and SPEC read only each loop's counted-loop description
    (:attr:`ivs`), and only the INX rewrite solves induction
    expressions.  With ``verify`` the IR verifier runs after every
    step too, so an edit that leaves bad IR or a stale CFG snapshot
    fails at the step that made it.
    """

    def __init__(self, function: Function, options: OptimizerOptions,
                 verify: bool = False) -> None:
        self.function = function
        self.options = options
        self.verify = verify
        self.stats = OptimizeStats(function.name)
        self.store = ImplicationStore()
        self.edge_gen: EdgeGen = {}
        self._env: Optional[AffineEnv] = None
        self._forest: Optional[LoopForest] = None
        self._induction: Optional[InductionAnalysis] = None
        self._ivs: Optional[LoopIVs] = None
        #: headers of SPEC's checked slow-path clones, which the LLS
        #: hoist after it leaves NI-exact
        self.slow_headers: Set[str] = set()

    # -- analysis plumbing ------------------------------------------------

    def _refresh_analyses(self) -> None:
        self._env = None
        self._forest = None
        self._induction = None
        self._ivs = None

    @property
    def env(self) -> AffineEnv:
        """The affine forms, built on first read."""
        if self._env is None:
            self._env = compute_affine_forms(self.function)
        return self._env

    @property
    def forest(self) -> LoopForest:
        """The loop forest over the current CFG's dominator tree, built
        on first read."""
        if self._forest is None:
            self._forest = LoopForest(self.function,
                                      DominatorTree(self.function))
        return self._forest

    @property
    def induction(self) -> InductionAnalysis:
        """The induction analysis, built on first read."""
        if self._induction is None:
            self._induction = InductionAnalysis(self.function, self.forest,
                                                self.env)
        return self._induction

    @property
    def ivs(self) -> LoopIVs:
        """Each loop's counted-loop description, built on first read."""
        if self._ivs is None:
            self._ivs = loop_ivs(self.function, self.forest, self.env)
        return self._ivs

    def _make_analysis(self) -> CheckAnalysis:
        universe = universe_from_function(self.function)
        cig = CheckImplicationGraph(universe, self.store,
                                    self.options.implication)
        return CheckAnalysis(self.function, universe, cig)

    # -- driver ------------------------------------------------------------

    def run(self) -> OptimizeStats:
        """Run the five steps; returns the stats."""
        function = self.function
        options = self.options
        self.stats.checks_before = count_checks(function)
        steps = self.SCHEME_STEPS[options.scheme]
        if options.kind is CheckKind.INX:
            steps = (RangeCheckOptimizer.inx,) + steps
        for step in steps:
            self._refresh_analyses()
            step(self)
            self._verify_after(step.__name__)
        # VR is the abstract-interpretation baseline: compile-time
        # elimination only, no check dataflow
        if options.scheme is not Scheme.VR:
            self._eliminate()
            self._verify_after("eliminate")
        folded, reports = fold_compile_time(function)
        self.stats.compile_time = folded
        self.stats.trap_reports.extend(reports)
        self.stats.checks_after = count_checks(function)
        verify_function(function)
        return self.stats

    def _verify_after(self, step: str) -> None:
        if not self.verify:
            return
        try:
            verify_function(self.function)
        except IRError as exc:
            raise IRError("after check-optimize step %r: %s"
                          % (step, exc)) from exc

    def _eliminate(self) -> None:
        # The semantic tier only runs on interprocedural (+inl)
        # configurations: that is what it exists for (argument-carried
        # symbolic bounds), and keeping it off elsewhere preserves the
        # paper's syntactic results exactly -- integer tightening can
        # legitimately out-prove Figure 1's availability step (e.g.
        # -2n <= -5 entails -2n <= -6 for integer n).  It also rides
        # the implication switch: the primed ablations (NI'/SE') must
        # not quietly regain implications through the prover.
        prove = (self.options.inline
                 and self.options.implication is not ImplicationMode.NONE)
        removed, proved = eliminate_redundant(self._make_analysis(),
                                              self.edge_gen, prove=prove)
        self.stats.eliminated = removed + proved
        self.stats.proved = proved

    # -- steps ---------------------------------------------------------------

    def inx(self) -> None:
        """Rewrite checks to induction expressions (INX-checks)."""
        induction = self.induction
        materializer = BasicVarMaterializer(self.function, self.forest)
        self.stats.inx_rewritten = rewrite_checks_to_inx(
            self.function, induction, self.env, materializer)

    def strengthen(self) -> None:
        """CS: strengthen checks in place (Gupta)."""
        self.stats.strengthened = strengthen_checks(self._make_analysis())

    def earliest(self) -> None:
        """SE: insert at the safe-earliest points."""
        self._place(safe_earliest_insertions)

    def latest(self) -> None:
        """LNI: insert at the latest-not-isolated points."""
        self._place(latest_insertions)

    def hoist_invariant(self) -> None:
        """LI: hoist loop-invariant checks to preheaders."""
        self._hoist(PreheaderInserter, substitute_linear=False)

    def hoist_linear(self) -> None:
        """LLS: preheader insertion with loop-limit substitution."""
        self._hoist(PreheaderInserter, substitute_linear=True)

    def markstein(self) -> None:
        """MCM: preheader insertion from articulation nodes only."""
        self._hoist(MarksteinInserter, substitute_linear=True)

    def lospre(self) -> None:
        """LO: LCM latest's insertions or none, whichever executes
        fewer checks at the profile's counts.  With no profile it is
        the latest placement verbatim."""
        self._place(lospre_insertions, self.options.profile)

    def spec(self) -> None:
        """SPEC: version loops behind a convex-hull envelope guard.  The
        preheader inserter later skips the checked slow-path clones, so
        they stay NI-exact."""
        versioner = SpeculativeVersioner(self.function, self.env,
                                         self.forest, self.ivs)
        versioner.run()
        self.stats.speculated += versioner.versioned
        self.slow_headers |= versioner.slow_headers

    def value_range(self) -> None:
        """VR: delete or trap checks an interval analysis decides."""
        removed, reports = eliminate_by_value_range(self.function)
        self.stats.eliminated = removed
        self.stats.trap_reports.extend(reports)

    def _place(self, placement, *args) -> None:
        env = self.env
        analysis = self._make_analysis()
        insertions = placement(analysis, self.edge_gen, *args)
        self.stats.inserted += apply_insertions(analysis, env, insertions)

    def _hoist(self, inserter_class, substitute_linear: bool) -> None:
        inserter = inserter_class(self._make_analysis(), self.env,
                                  self.forest, self.ivs, self.store,
                                  self.slow_headers)
        inserter.run(substitute_linear)
        self.stats.inserted += inserter.inserted
        for edge, checks in inserter.edge_gen.items():
            self.edge_gen.setdefault(edge, []).extend(checks)

    #: Each scheme's insertion steps, in order (step 3 of the paper).
    #: The paper's ALL is "LLS followed by SE"; the extensions follow
    #: the same pattern: LO is the LLS hoist followed by LCM latest's
    #: insertions or none, priced at the profile, and SPEC versions
    #: loops before the LLS hoist covers what its guard could not.
    SCHEME_STEPS: Dict[Scheme, Tuple[Callable, ...]] = {
        Scheme.NI: (),
        Scheme.CS: (strengthen,),
        Scheme.LNI: (latest,),
        Scheme.SE: (earliest,),
        Scheme.LI: (hoist_invariant,),
        Scheme.LLS: (hoist_linear,),
        Scheme.ALL: (hoist_linear, earliest),
        Scheme.MCM: (markstein,),
        Scheme.VR: (value_range,),
        Scheme.SPEC: (spec, hoist_linear),
        Scheme.LO: (hoist_linear, lospre),
    }


def optimize_function(function: Function,
                      options: Optional[OptimizerOptions] = None,
                      verify: bool = False) -> OptimizeStats:
    """Optimize one function in place; returns its stats.  ``verify``
    runs the IR verifier after every step."""
    return RangeCheckOptimizer(function, options or OptimizerOptions(),
                               verify).run()


def optimize_module(module: Module,
                    options: Optional[OptimizerOptions] = None,
                    verify: bool = False) -> Dict[str, OptimizeStats]:
    """Optimize every function of a module; returns stats per function."""
    options = options or OptimizerOptions()
    return {function.name: optimize_function(function, options, verify)
            for function in module}
