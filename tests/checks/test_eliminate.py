"""Tests for redundancy elimination and compile-time folding."""

from repro.checks import (CanonicalCheck, CheckAnalysis,
                          CheckImplicationGraph, eliminate_redundant,
                          fold_compile_time, universe_from_function)
from repro.ir import Check, Trap

from ..conftest import lower_ssa


def checks_of(function):
    return [i for i in function.instructions() if isinstance(i, Check)]


def eliminate(source):
    module = lower_ssa(source)
    main = module.main
    universe = universe_from_function(main)
    cig = CheckImplicationGraph(universe)
    analysis = CheckAnalysis(main, universe, cig)
    removed, proved = eliminate_redundant(analysis)
    assert proved == 0  # the prover tier is off by default
    return main, removed


class TestElimination:
    def test_identical_checks_deduplicated(self):
        main, removed = eliminate("""
program p
  input integer :: n = 2
  real :: a(10), b(10)
  a(n) = 1.0
  b(n) = 2.0
end program
""")
        assert removed == 2  # b's lower and upper are duplicates

    def test_weaker_check_eliminated(self):
        main, removed = eliminate("""
program p
  input integer :: n = 2
  real :: a(10)
  a(n) = 1.0
  a(n + 1) = 2.0
end program
""")
        # (n <= 9) from the second access is implied by nothing;
        # its lower (-n <= 0) is implied by the first (-n <= -1)
        kinds = [(c.kind, c.bound) for c in checks_of(main)]
        assert ("lower", 0) not in kinds

    def test_stronger_check_not_eliminated(self):
        main, removed = eliminate("""
program p
  input integer :: n = 2
  real :: a(10)
  a(n + 1) = 2.0
  a(n) = 1.0
end program
""")
        # second access's upper (n <= 10) is implied by the first
        # (n <= 9); its lower (-n <= -1) is NOT implied by (-n <= 0)
        remaining = [CanonicalCheck.of(c) for c in checks_of(main)]
        bounds = {(str(c.linexpr), c.bound) for c in remaining}
        assert ("-n", -1) in bounds

    def test_branch_blocks_elimination(self):
        main, removed = eliminate("""
program p
  input integer :: n = 2, c = 1
  real :: a(10)
  if (c > 0) then
    a(n) = 1.0
  end if
  a(n) = 2.0
end program
""")
        # the check after the if is only partially redundant: kept
        assert len(checks_of(main)) == 4

    def test_merge_from_both_arms_eliminates(self):
        main, removed = eliminate("""
program p
  input integer :: n = 2, c = 1
  real :: a(10)
  if (c > 0) then
    a(n) = 1.0
  else
    a(n) = 2.0
  end if
  a(n) = 3.0
end program
""")
        # both arms perform the checks: the post-join pair is redundant
        assert removed >= 2


class TestCompileTimeFolding:
    def test_true_checks_removed(self):
        module = lower_ssa("""
program p
  real :: a(10)
  a(5) = 1.0
end program
""")
        removed, reports = fold_compile_time(module.main)
        assert removed == 2
        assert reports == []

    def test_false_check_becomes_trap(self):
        module = lower_ssa("""
program p
  real :: a(10)
  a(0) = 1.0
end program
""")
        removed, reports = fold_compile_time(module.main)
        assert len(reports) == 1
        assert any(isinstance(i, Trap)
                   for i in module.main.instructions())

    def test_symbolic_checks_untouched(self):
        module = lower_ssa("""
program p
  input integer :: n = 1
  real :: a(10)
  a(n) = 1.0
end program
""")
        removed, reports = fold_compile_time(module.main)
        assert removed == 0
        assert len(checks_of(module.main)) == 2

    def test_statically_false_guard_removes_cond_check(self):
        from repro.ir import Check, Var, INT
        from repro.ir.instructions import Guard
        from repro.symbolic import LinearExpr
        module = lower_ssa("program p\nend program")
        main = module.main
        guard = Guard(LinearExpr.constant(0).drop_const(), -1, {})
        cond = Check(LinearExpr({}, 0), -5, {}, "upper", "", [guard])
        main.entry.insert(0, cond)
        removed, reports = fold_compile_time(main)
        assert removed == 1  # 0 <= -1 is false: check never performed

    def test_statically_true_guard_dropped(self):
        from repro.ir import Check
        from repro.ir.instructions import Guard
        from repro.symbolic import LinearExpr
        module = lower_ssa("""
program p
  input integer :: n = 1
  real :: a(10)
  a(n) = 1.0
end program
""")
        main = module.main
        guard = Guard(LinearExpr({}, 0), 5, {})
        target = checks_of(main)[0]
        target.guards = [guard]
        fold_compile_time(main)
        assert target.guards == []

    def test_symbolic_guard_blocks_false_body(self):
        from repro.ir import Check, Var, INT
        from repro.ir.instructions import Guard
        from repro.symbolic import LinearExpr
        module = lower_ssa("""
program p
  input integer :: n = 1
  real :: a(10)
  a(n) = 1.0
end program
""")
        main = module.main
        guard = Guard(LinearExpr({"n": 1}, 0), 0, {"n": Var("n", INT)})
        cond = Check(LinearExpr({}, 0), -5, {}, "upper", "", [guard])
        main.entry.insert(0, cond)
        removed, reports = fold_compile_time(main)
        # must NOT turn into an unconditional trap: the guard may be false
        assert not any(isinstance(i, Trap)
                       for i in main.instructions())
        assert cond in list(main.instructions())

    def test_verdict_is_pure(self):
        from repro.checks.eliminate import compile_time_verdict
        from repro.ir import Var, INT
        from repro.ir.instructions import Guard
        from repro.symbolic import LinearExpr
        true_guard = Guard(LinearExpr({}, 0), 5, {})
        false_guard = Guard(LinearExpr({}, 0), -1, {})
        symbolic = Guard(LinearExpr({"n": 1}, 0), 0, {"n": Var("n", INT)})
        n = {"n": Var("n", INT)}

        def verdict(linexpr, bound, guards):
            check = Check(linexpr, bound, dict(n), "upper", "", guards)
            result = compile_time_verdict(check)
            assert check.guards == guards  # never trimmed here
            return result

        assert verdict(LinearExpr({}, 0), -5, [true_guard]) is False
        assert verdict(LinearExpr({}, 0), 5, [true_guard]) is True
        assert verdict(LinearExpr({}, 0), -5, [symbolic, false_guard]) \
            is True
        assert verdict(LinearExpr({}, 0), -5, [true_guard, symbolic]) \
            is None
        assert verdict(LinearExpr({"n": 1}, 0), 5, [true_guard]) is None
