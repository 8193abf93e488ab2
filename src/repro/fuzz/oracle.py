"""The differential safety oracle.

One generated program is compiled under *every* optimizer
configuration and executed on all engines (the interpreter plus both
back-end tiers); the oracle asserts the paper's correctness contract
against the naive-checking baseline:

1. **Engine agreement** -- for each configuration, the interpreter and
   each Python back-end tier (direct-threaded and specialized) produce
   identical output, identical trap behavior, and identical dynamic
   check counts (instruction counts legitimately differ: the back-ends
   run destructed SSA).
2. **No extra work** -- on runs where neither version traps, the
   optimized program's *effective* checks (executed checks whose range
   inequality was actually evaluated; a Cond-check stopped by its
   guard is excluded) never exceed the naive baseline's check count.
3. **Safety** -- the interpreter re-runs every configuration with the
   per-access bounds audit armed
   (:class:`~repro.errors.BoundsAuditError`): any out-of-bounds access
   that the optimized check placement fails to trap *before* the
   access is an optimizer soundness bug, regardless of what the
   program prints.  Together with (1) this is the paper's safety
   claim: every access that traps under naive checking still traps --
   at the same point or earlier -- under every configuration.
4. **Trap equivalence** -- an optimized program traps iff the
   baseline traps; when it traps (possibly earlier, from a hoisted
   check), its output so far is a prefix of the baseline's output.

The baseline itself also runs under the audit: a
:class:`~repro.errors.BoundsAuditError` there means naive lowering
failed to guard an access -- a frontend bug, reported distinctly.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .. import faults
from ..checks.config import CheckKind, ImplicationMode, OptimizerOptions, Scheme
from ..errors import (BoundsAuditError, CallDepthError, InterpError,
                      RangeTrap, ReproError, StepLimitError)
from ..interp.machine import Machine
from ..pipeline.cache import FrontendCache
from ..pipeline.driver import compile_source

DEFAULT_MAX_STEPS = 2_000_000


def all_configurations() -> List[OptimizerOptions]:
    """Every (Scheme x CheckKind x ImplicationMode) point, in a fixed
    deterministic order."""
    return [OptimizerOptions(scheme=s, kind=k, implication=m)
            for s, k, m in itertools.product(Scheme, CheckKind,
                                             ImplicationMode)]


#: schemes whose ``+inl`` variant the oracle exercises: the pure
#: eliminator (where the paired inline invariant is provable) plus the
#: two preheader-insertion schemes the paper's tables lead with
INLINE_SCHEMES = (Scheme.NI, Scheme.LLS, Scheme.ALL)


def inline_configurations() -> List[OptimizerOptions]:
    """The interprocedural (``+inl``) points: inline-on variants of
    :data:`INLINE_SCHEMES` under full implication, both check kinds."""
    return [OptimizerOptions(scheme=s, kind=k,
                             implication=ImplicationMode.ALL, inline=True)
            for s, k in itertools.product(INLINE_SCHEMES, CheckKind)]


def config_by_label() -> Dict[str, OptimizerOptions]:
    """Label -> options for every distinct configuration label.

    Labels are not injective over the full matrix (``PRX-NI'`` is both
    NONE and CROSS_FAMILY); the first configuration in matrix order
    wins, which matches the tables' usage.  The ``+inl`` labels of
    :func:`inline_configurations` resolve too (fuzz shards select them
    with ``--configs PRX-NI+inl`` etc.).
    """
    table: Dict[str, OptimizerOptions] = {}
    for options in all_configurations() + inline_configurations():
        table.setdefault(options.label(), options)
    return table


class FuzzFailure:
    """One oracle violation, with everything needed to reproduce it."""

    def __init__(self, kind: str, seed: Optional[int], source: str,
                 config: str, detail: str) -> None:
        #: one of: frontend-error, baseline-audit, baseline-engine,
        #: compile-error, verify-ir, safety, spurious-trap,
        #: missing-trap, output-mismatch, not-prefix, engine-mismatch,
        #: limit-parity, count-regression, lospre-regression,
        #: inline-regression, crash
        self.kind = kind
        self.seed = seed
        self.source = source
        self.config = config
        self.detail = detail

    def __repr__(self) -> str:
        return "FuzzFailure(%s, seed=%s, config=%s)" % (
            self.kind, self.seed, self.config)

    def describe(self) -> str:
        header = "[%s] config=%s seed=%s" % (self.kind, self.config,
                                             self.seed)
        return "%s\n%s" % (header, self.detail)


class _RunResult:
    """Outcome of one execution: output, trap, counters, or error."""

    def __init__(self, output, trapped: bool, counters,
                 audit_error: Optional[BoundsAuditError] = None,
                 error: Optional[BaseException] = None) -> None:
        self.output = output
        self.trapped = trapped
        self.counters = counters
        self.audit_error = audit_error
        self.error = error


def _run_interp(module, inputs, max_steps: int,
                bounds_audit: bool) -> _RunResult:
    machine = Machine(module, inputs, max_steps, bounds_audit=bounds_audit)
    try:
        machine.run()
    except RangeTrap:
        return _RunResult(machine.output, True, machine.counters)
    except BoundsAuditError as audit:
        return _RunResult(machine.output, False, machine.counters,
                          audit_error=audit)
    except InterpError as error:
        return _RunResult(machine.output, False, machine.counters,
                          error=error)
    return _RunResult(machine.output, False, machine.counters)


def _run_compiled(program, inputs,
                  max_steps: int = DEFAULT_MAX_STEPS,
                  engine: str = "compiled") -> _RunResult:
    try:
        runtime = program.run_compiled(inputs, max_steps=max_steps,
                                       engine=engine)
    except RangeTrap as trap:
        runtime = getattr(trap, "runtime", None)
        if runtime is None:  # pragma: no cover - the back-end attaches it
            return _RunResult(None, True, None)
        return _RunResult(runtime.output, True, runtime.counters)
    except InterpError as error:
        # e.g. ArrayStorage faulting on an unchecked access
        return _RunResult(None, False, None, error=error)
    return _RunResult(runtime.output, False, runtime.counters)


class Oracle:
    """Checks one program (by source text) against the full matrix."""

    def __init__(self, configs: Optional[List[OptimizerOptions]] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 engines: bool = True, cache_dir: Optional[str] = None,
                 faults_spec: Optional[str] = None) -> None:
        self.configs = configs if configs is not None \
            else all_configurations() + inline_configurations()
        self.max_steps = max_steps
        #: also run the Python back-end and require engine agreement
        self.engines = engines
        #: optional on-disk layer for the per-check frontend cache —
        #: gives the ``diskcache.*`` fault points something to hit
        self.cache_dir = cache_dir
        #: fault spec armed around each check (cache faults must be
        #: invisible to program semantics; the oracle proves it)
        self.faults_spec = faults_spec

    def check(self, source: str, seed: Optional[int] = None,
              inputs: Optional[Dict[str, float]] = None
              ) -> Optional[FuzzFailure]:
        """First oracle violation for ``source``, or ``None``."""
        if self.faults_spec:
            with faults.armed(self.faults_spec):
                return self._check(source, seed, inputs)
        return self._check(source, seed, inputs)

    def _check(self, source: str, seed: Optional[int] = None,
               inputs: Optional[Dict[str, float]] = None
               ) -> Optional[FuzzFailure]:
        inputs = inputs or {}
        cache = FrontendCache(disk_dir=self.cache_dir)

        # -- baseline: naive checking, audit armed ---------------------
        try:
            baseline_prog = compile_source(source, optimize=False,
                                           cache=cache, verify_ir=True)
        except ReproError as error:
            return FuzzFailure("frontend-error", seed, source, "<baseline>",
                               "%s: %s" % (type(error).__name__, error))
        baseline = _run_interp(baseline_prog.module, inputs,
                               self.max_steps, bounds_audit=True)
        if baseline.error is not None:
            return None  # resource limits etc.: not an oracle matter
        if baseline.audit_error is not None:
            return FuzzFailure(
                "baseline-audit", seed, source, "<baseline>",
                "naive lowering let an access escape checking: %s"
                % baseline.audit_error)
        if self.engines:
            for engine in ("compiled", "specialized"):
                compiled = _run_compiled(baseline_prog, inputs,
                                         self.max_steps, engine=engine)
                failure = self._compare_engines(baseline, compiled, seed,
                                                source, "<baseline>",
                                                kind="baseline-engine",
                                                engine=engine)
                if failure is not None:
                    return failure

        # -- every optimizer configuration ----------------------------
        clean_effective: Dict[str, int] = {}
        for options in self.configs:
            label = options.label()
            try:
                program = compile_source(source, options, cache=cache,
                                         verify_ir=True)
            except ReproError as error:
                kind = "verify-ir" if "after pass" in str(error) \
                    else "compile-error"
                return FuzzFailure(kind, seed, source, label,
                                   "%s: %s" % (type(error).__name__, error))
            optimized = _run_interp(program.module, inputs,
                                    self.max_steps, bounds_audit=True)
            failure = self._compare_with_baseline(baseline, optimized,
                                                  seed, source, label)
            if failure is not None:
                return failure
            if (not optimized.trapped and optimized.error is None
                    and optimized.audit_error is None):
                clean_effective[label] = \
                    optimized.counters.effective_checks()
            if self.engines:
                for engine in ("compiled", "specialized"):
                    compiled = _run_compiled(program, inputs,
                                             self.max_steps, engine=engine)
                    failure = self._compare_engines(optimized, compiled,
                                                    seed, source, label,
                                                    engine=engine)
                    if failure is not None:
                        return failure

        failure = self._check_inline_pairs(clean_effective, seed, source)
        if failure is not None:
            return failure

        # -- profile-guided LO, trained on this very program ----------
        # The matrix above exercises LO's no-profile degradation; this
        # pass trains an edge profile (which on trapping programs is
        # deliberately *inconsistent* — truncated mid-run — the case
        # where the min cut actually diverges from LCM latest) and
        # holds trained LO to every baseline invariant plus one more:
        # it never executes more effective checks than LLS, the scheme
        # whose placement it refines.
        if any(options.scheme is Scheme.LO for options in self.configs):
            for kind in (CheckKind.PRX, CheckKind.INX):
                failure = self._check_trained_lo(source, seed, inputs,
                                                 cache, baseline, kind)
                if failure is not None:
                    return failure
        return None

    def _check_trained_lo(self, source: str, seed, inputs,
                          cache: FrontendCache, baseline: _RunResult,
                          kind: CheckKind) -> Optional[FuzzFailure]:
        from ..pipeline.profile import with_profile

        trained = with_profile(OptimizerOptions(scheme=Scheme.LO, kind=kind),
                               source, inputs, "auto", self.max_steps, cache)
        label = trained.label() + "+profile"
        try:
            program = compile_source(source, trained, cache=cache,
                                     verify_ir=True)
        except ReproError as error:
            fail_kind = "verify-ir" if "after pass" in str(error) \
                else "compile-error"
            return FuzzFailure(fail_kind, seed, source, label,
                               "%s: %s" % (type(error).__name__, error))
        optimized = _run_interp(program.module, inputs, self.max_steps,
                                bounds_audit=True)
        failure = self._compare_with_baseline(baseline, optimized, seed,
                                              source, label)
        if failure is not None:
            return failure
        if self.engines:
            for engine in ("compiled", "specialized"):
                compiled = _run_compiled(program, inputs, self.max_steps,
                                         engine=engine)
                failure = self._compare_engines(optimized, compiled, seed,
                                                source, label,
                                                engine=engine)
                if failure is not None:
                    return failure
        # the placement-refinement invariant: on non-trapping runs,
        # trained LO never does more dynamic work than LLS
        lls = compile_source(source,
                             OptimizerOptions(scheme=Scheme.LLS, kind=kind),
                             cache=cache)
        lls_run = _run_interp(lls.module, inputs, self.max_steps,
                              bounds_audit=False)
        if (not optimized.trapped and not lls_run.trapped
                and optimized.error is None and lls_run.error is None
                and optimized.counters.effective_checks()
                > lls_run.counters.effective_checks()):
            return FuzzFailure(
                "lospre-regression", seed, source, label,
                "trained LO executed %d effective checks vs %d under "
                "LLS (speculation must never increase the "
                "profile-weighted dynamic count)"
                % (optimized.counters.effective_checks(),
                   lls_run.counters.effective_checks()))
        return None

    def _check_inline_pairs(self, clean_effective: Dict[str, int],
                            seed, source) -> Optional[FuzzFailure]:
        """The cross-call elimination invariant for paired configs.

        For the pure-elimination NI scheme, inlining can only *add*
        facts: every check of a standalone callee reappears in each
        clone region with at least the facts it had standalone, and
        caller-side facts survive the splice (cloned names are fresh,
        arrays are aliased not copied, so no caller symbol is killed).
        Hence on a clean run the inlined configuration must never
        execute more effective checks than its non-inlined twin.  The
        hoisting schemes (LLS/ALL) get no such guarantee -- inlining
        changes the loop nests that placement reasons about -- so only
        NI pairs are compared.
        """
        for options in self.configs:
            if not getattr(options, "inline", False) \
                    or options.scheme is not Scheme.NI:
                continue
            label = options.label()
            base_label = label.replace("+inl", "")
            if label not in clean_effective \
                    or base_label not in clean_effective:
                continue  # either run trapped/errored: nothing to pair
            inlined = clean_effective[label]
            baseline = clean_effective[base_label]
            if inlined > baseline:
                return FuzzFailure(
                    "inline-regression", seed, source, label,
                    "inlined run executed %d effective checks vs %d "
                    "under %s (inlining may only expose more facts "
                    "under NI, never remove them)"
                    % (inlined, baseline, base_label))
        return None

    # -- invariants -----------------------------------------------------

    def _compare_with_baseline(self, baseline: _RunResult,
                               optimized: _RunResult, seed, source,
                               label: str) -> Optional[FuzzFailure]:
        if optimized.error is not None:
            return FuzzFailure(
                "crash", seed, source, label,
                "optimized run raised %s: %s (baseline ran clean)"
                % (type(optimized.error).__name__, optimized.error))
        if optimized.audit_error is not None:
            return FuzzFailure(
                "safety", seed, source, label,
                "optimized checks let an out-of-bounds access through: "
                "%s" % optimized.audit_error)
        if optimized.trapped and not baseline.trapped:
            return FuzzFailure(
                "spurious-trap", seed, source, label,
                "optimized program traps; the naive program runs clean\n"
                "baseline output: %r\noptimized output: %r"
                % (baseline.output, optimized.output))
        if baseline.trapped and not optimized.trapped:
            return FuzzFailure(
                "missing-trap", seed, source, label,
                "naive program traps; optimized program runs to "
                "completion\nbaseline output: %r\noptimized output: %r"
                % (baseline.output, optimized.output))
        if baseline.trapped:
            # both trapped; the optimized one may trap earlier
            prefix = baseline.output[:len(optimized.output)]
            if optimized.output != prefix:
                return FuzzFailure(
                    "not-prefix", seed, source, label,
                    "optimized output up to its (earlier) trap is not a "
                    "prefix of the baseline's\nbaseline: %r\noptimized: %r"
                    % (baseline.output, optimized.output))
            return None
        if optimized.output != baseline.output:
            return FuzzFailure(
                "output-mismatch", seed, source, label,
                "baseline: %r\noptimized: %r"
                % (baseline.output, optimized.output))
        if optimized.counters.effective_checks() > baseline.counters.checks:
            return FuzzFailure(
                "count-regression", seed, source, label,
                "optimized executed %d effective checks "
                "(%d total - %d guard-skipped) vs %d naive checks"
                % (optimized.counters.effective_checks(),
                   optimized.counters.checks,
                   optimized.counters.guard_skipped,
                   baseline.counters.checks))
        if optimized.counters.spec_misses > optimized.counters.spec_guards:
            # each evaluated envelope guard records at most one miss, so
            # a surplus means SpecGuard accounting itself is broken
            return FuzzFailure(
                "count-regression", seed, source, label,
                "spec_misses=%d exceeds spec_guards=%d"
                % (optimized.counters.spec_misses,
                   optimized.counters.spec_guards))
        return None

    def _compare_engines(self, interp: _RunResult, compiled: _RunResult,
                         seed, source, label: str,
                         kind: str = "engine-mismatch",
                         engine: str = "compiled"
                         ) -> Optional[FuzzFailure]:
        if compiled.error is not None:
            # limit parity: the interpreter side of this comparison ran
            # within both limits (an interpreter limit error bails out
            # earlier), so the back-end must agree -- with one carve-out.
            # Destructed SSA charges the phi copies and split-edge
            # landing blocks as extra fuel, so the back-end may exhaust
            # ``max_steps`` on runs the interpreter finished; that
            # one-sided StepLimitError is tolerated.  Call depth is 1:1
            # between engines, so a one-sided CallDepthError is a real
            # parity bug.
            if isinstance(compiled.error, StepLimitError):
                return None
            if isinstance(compiled.error, CallDepthError):
                return FuzzFailure(
                    "limit-parity", seed, source, label,
                    "the %s back-end hit the call-depth limit (%s) on a "
                    "program the interpreter %s"
                    % (engine, compiled.error,
                       "trapped" if interp.trapped else "ran clean"))
            return FuzzFailure(
                kind, seed, source, label,
                "the %s back-end raised %s: %s (interpreter %s)"
                % (engine, type(compiled.error).__name__, compiled.error,
                   "trapped" if interp.trapped else "ran clean"))
        if compiled.trapped != interp.trapped:
            return FuzzFailure(
                kind, seed, source, label,
                "interpreter %s but the %s back-end %s"
                % ("trapped" if interp.trapped else "ran clean", engine,
                   "trapped" if compiled.trapped else "ran clean"))
        if compiled.output is None or compiled.counters is None:
            return None  # backend trap state without a runtime handle
        if compiled.output != interp.output:
            return FuzzFailure(
                kind, seed, source, label,
                "outputs differ\ninterp: %r\n%s: %r"
                % (interp.output, engine, compiled.output))
        if interp.trapped:
            # per-block accounting: the back-end bumps a whole block's
            # check count on entry, so a trap mid-block legitimately
            # leaves it ahead of the interpreter's exact count
            return None
        if compiled.counters.checks != interp.counters.checks or \
                compiled.counters.guard_skipped != \
                interp.counters.guard_skipped or \
                compiled.counters.spec_guards != \
                interp.counters.spec_guards or \
                compiled.counters.spec_misses != \
                interp.counters.spec_misses:
            return FuzzFailure(
                kind, seed, source, label,
                "dynamic check counts differ\n"
                "interp: checks=%d guard_skipped=%d "
                "spec_guards=%d spec_misses=%d\n"
                "%s: checks=%d guard_skipped=%d "
                "spec_guards=%d spec_misses=%d"
                % (interp.counters.checks, interp.counters.guard_skipped,
                   interp.counters.spec_guards, interp.counters.spec_misses,
                   engine, compiled.counters.checks,
                   compiled.counters.guard_skipped,
                   compiled.counters.spec_guards,
                   compiled.counters.spec_misses))
        return None
