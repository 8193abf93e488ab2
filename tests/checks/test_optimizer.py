"""End-to-end tests for the range-check optimizer (all schemes)."""

import pytest

from repro.analysis.dominance import DominatorTree
from repro.benchsuite.registry import all_programs
from repro.checks import (CheckKind, ImplicationMode, OptimizerOptions,
                          Scheme, count_checks, optimize_module)
from repro.checks.optimizer import InductionAnalysis, LoopForest
from repro.ir import Check, Trap, verify_module
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source

from ..conftest import (ALL_KINDS, ALL_MODES, ALL_SCHEMES, compile_and_run,
                        lower_ssa, run_baseline)


class TestSchemeBasics:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_output_preserved(self, loop_program, scheme):
        baseline = run_baseline(loop_program, {"n": 9})
        optimized = compile_and_run(loop_program,
                                    OptimizerOptions(scheme=scheme),
                                    {"n": 9})
        assert optimized.output == baseline.output

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_never_more_static_checks_than_baseline_plus_preheaders(
            self, loop_program, scheme):
        module = lower_ssa(loop_program)
        before = sum(count_checks(f) for f in module)
        optimize_module(module, OptimizerOptions(scheme=scheme))
        after = sum(count_checks(f) for f in module)
        assert after <= before + 8  # inserted cond-checks are bounded

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_verifies_after_optimization(self, loop_program, scheme, kind):
        module = lower_ssa(loop_program)
        optimize_module(module, OptimizerOptions(scheme=scheme, kind=kind))
        verify_module(module)

    def test_ni_eliminates_redundant_checks(self, loop_program):
        baseline = run_baseline(loop_program, {"n": 20})
        optimized = compile_and_run(loop_program,
                                    OptimizerOptions(scheme=Scheme.NI),
                                    {"n": 20})
        assert optimized.counters.checks < baseline.counters.checks

    def test_lls_hoists_loop_checks(self, loop_program):
        baseline = run_baseline(loop_program, {"n": 50})
        optimized = compile_and_run(loop_program,
                                    OptimizerOptions(scheme=Scheme.LLS),
                                    {"n": 50})
        # per-iteration checks are gone: only preheader cond-checks and
        # post-loop checks remain
        assert optimized.counters.checks <= 6
        assert baseline.counters.checks >= 200


class TestSchemeOrdering:
    """The paper's qualitative ordering between schemes."""

    SOURCE = """
program ordering
  input integer :: n = 30
  integer :: i
  real :: a(100), b(100)
  do i = 2, n
    a(i) = a(i) + b(i)
    b(i - 1) = a(i - 1) * 0.5
  end do
  print a(n)
end program
"""

    def dynamic_checks(self, scheme):
        machine = compile_and_run(self.SOURCE,
                                  OptimizerOptions(scheme=scheme))
        return machine.counters.checks

    def test_cs_not_worse_than_ni(self):
        assert self.dynamic_checks(Scheme.CS) <= \
            self.dynamic_checks(Scheme.NI)

    def test_se_not_worse_than_lni(self):
        assert self.dynamic_checks(Scheme.SE) <= \
            self.dynamic_checks(Scheme.LNI)

    def test_lls_not_worse_than_li(self):
        assert self.dynamic_checks(Scheme.LLS) <= \
            self.dynamic_checks(Scheme.LI)

    def test_li_not_worse_than_ni(self):
        assert self.dynamic_checks(Scheme.LI) <= \
            self.dynamic_checks(Scheme.NI)

    def test_lls_is_dramatic(self):
        baseline = run_baseline(self.SOURCE)
        lls = self.dynamic_checks(Scheme.LLS)
        assert lls < baseline.counters.checks * 0.1


class TestCompileTimeChecks:
    def test_constant_true_checks_removed(self):
        module = lower_ssa("""
program p
  real :: a(10)
  a(3) = 1.0
end program
""")
        optimize_module(module, OptimizerOptions(scheme=Scheme.NI))
        assert count_checks(module.main) == 0

    def test_constant_false_check_becomes_trap(self):
        module = lower_ssa("""
program p
  real :: a(10)
  a(11) = 1.0
end program
""")
        optimize_module(module, OptimizerOptions(scheme=Scheme.NI))
        traps = [i for i in module.main.instructions()
                 if isinstance(i, Trap)]
        assert traps

    def test_trap_reported(self):
        module = lower_ssa("""
program p
  real :: a(10)
  a(11) = 1.0
end program
""")
        stats = optimize_module(module, OptimizerOptions(scheme=Scheme.NI))
        assert stats["p"].trap_reports


class TestImplicationModes:
    STENCIL = """
program stencil
  input integer :: n = 30
  integer :: i
  real :: x(100)
  do i = 2, n
    x(i) = x(i + 1) + x(i - 1) + x(i)
  end do
  print x(2)
end program
"""

    def run_mode(self, scheme, mode):
        machine = compile_and_run(
            self.STENCIL, OptimizerOptions(scheme=scheme, implication=mode))
        return machine.counters.checks

    def test_ni_prime_not_better(self):
        assert self.run_mode(Scheme.NI, ImplicationMode.NONE) >= \
            self.run_mode(Scheme.NI, ImplicationMode.ALL)

    def test_ni_prime_strictly_worse_on_stencils(self):
        assert self.run_mode(Scheme.NI, ImplicationMode.NONE) > \
            self.run_mode(Scheme.NI, ImplicationMode.ALL)

    def test_lls_prime_keeps_preheader_implications(self):
        lls = self.run_mode(Scheme.LLS, ImplicationMode.ALL)
        lls_prime = self.run_mode(Scheme.LLS, ImplicationMode.CROSS_FAMILY)
        baseline = run_baseline(self.STENCIL).counters.checks
        assert lls_prime < baseline * 0.25  # still close to LLS
        assert lls_prime >= lls

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_modes_preserve_output(self, mode):
        baseline = run_baseline(self.STENCIL)
        machine = compile_and_run(
            self.STENCIL,
            OptimizerOptions(scheme=Scheme.LLS, implication=mode))
        assert machine.output == baseline.output


class TestInxMode:
    DERIVED_IV = """
program derived
  input integer :: n = 25
  integer :: i, k
  real :: a(200)
  k = 3
  do i = 1, n
    a(k) = 2.0
    k = k + 5
  end do
  print a(3)
end program
"""

    def test_inx_hoists_derived_iv(self):
        prx = compile_and_run(
            self.DERIVED_IV,
            OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.PRX))
        inx = compile_and_run(
            self.DERIVED_IV,
            OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX))
        assert inx.counters.checks < prx.counters.checks

    def test_inx_output_preserved(self):
        baseline = run_baseline(self.DERIVED_IV)
        inx = compile_and_run(
            self.DERIVED_IV,
            OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX))
        assert inx.output == baseline.output

    def test_inx_li_sees_invariant_assigned_in_loop(self):
        source = """
program invar
  input integer :: base = 7
  integer :: i, m
  real :: y(50)
  do i = 1, 20
    m = base + 2
    y(m) = y(m) + 1.0
  end do
  print y(9)
end program
"""
        prx = compile_and_run(
            source, OptimizerOptions(scheme=Scheme.LI, kind=CheckKind.PRX))
        inx = compile_and_run(
            source, OptimizerOptions(scheme=Scheme.LI, kind=CheckKind.INX))
        assert inx.counters.checks < prx.counters.checks


class TestStats:
    def test_stats_populated(self, loop_program):
        module = lower_ssa(loop_program)
        stats = optimize_module(module, OptimizerOptions(scheme=Scheme.LLS))
        main_stats = stats["loopy"]
        assert main_stats.checks_before > main_stats.checks_after
        assert main_stats.inserted >= 1
        assert main_stats.eliminated >= 1

    def test_stats_merge(self, loop_program):
        from repro.checks import OptimizeStats
        module = lower_ssa(loop_program)
        stats = optimize_module(module, OptimizerOptions())
        total = OptimizeStats("total")
        for s in stats.values():
            total.merge(s)
        assert total.checks_before == sum(
            s.checks_before for s in stats.values())


class TestLazyAnalyses:
    """The loop forest is built only for the steps that read it: the
    hoists, SPEC and the INX rewrite.  The hoists and SPEC read each
    loop's counted-loop description; only the INX rewrite builds the
    induction analysis."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("scheme,forests", [
        (Scheme.NI, 0), (Scheme.CS, 0), (Scheme.LNI, 0), (Scheme.SE, 0),
        (Scheme.VR, 0), (Scheme.LI, 1), (Scheme.LLS, 1), (Scheme.ALL, 1),
        (Scheme.MCM, 1), (Scheme.LO, 1), (Scheme.SPEC, 2)])
    def test_builds_per_function(self, monkeypatch, kind, scheme, forests):
        logs = {}
        for cls in (InductionAnalysis, LoopForest):
            log = logs[cls.__name__] = []

            def counting(function, *args, _cls=cls, _log=log):
                _log.append(function.name)
                return _cls(function, *args)

            monkeypatch.setattr("repro.checks.optimizer." + cls.__name__,
                                counting)
        compiled = compile_source(all_programs()[0].source,
                                  OptimizerOptions(scheme, kind))
        functions = list(compiled.optimize_stats)
        inx = int(kind is CheckKind.INX)
        assert sorted(logs["LoopForest"]) == sorted(functions
                                                    * (forests + inx))
        assert sorted(logs["InductionAnalysis"]) == sorted(functions * inx)

    def test_warm_compile_computes_no_frontier(self, monkeypatch):
        source = all_programs()[0].source
        cache = FrontendCache()
        cache.frontend(source)
        frontiers = []
        original = DominatorTree._compute_frontiers

        def counting(tree):
            frontiers.append(tree.function.name)
            return original(tree)

        monkeypatch.setattr(DominatorTree, "_compute_frontiers", counting)
        compiled = compile_source(source, OptimizerOptions(Scheme.LLS),
                                  cache=cache)
        assert cache.hits == 1
        assert compiled.total_stats().inserted > 0
        assert frontiers == []
