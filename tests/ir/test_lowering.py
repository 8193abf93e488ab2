"""Tests for AST-to-IR lowering, including naive check insertion."""

import pytest

from repro.checks.canonical import CanonicalCheck
from repro.errors import SemanticError
from repro.ir import Check, Load, Store
from repro.ir.lowering import lower_program
from repro.symbolic import LinearExpr

from ..conftest import lower


def checks_of(function):
    return [inst for inst in function.instructions()
            if isinstance(inst, Check)]


def main_of(source):
    return lower(source).main


class TestPrograms:
    def test_minimal_program(self):
        module = lower("program p\nend program")
        assert module.main is not None
        assert module.main.name == "p"

    def test_input_becomes_param_with_default(self):
        main = main_of("program p\ninput integer :: n = 42\nend program")
        assert [p.name for p in main.params] == ["n"]
        assert main.input_defaults["n"] == 42

    def test_negative_input_default(self):
        main = main_of("program p\ninput integer :: n = -3\nend program")
        assert main.input_defaults["n"] == -3

    def test_subroutine_signature_order(self):
        module = lower("""
program p
  real :: x(5), y(5)
  call s(1, x, y)
end program
subroutine s(n, b, a)
  integer :: n
  real :: a(5), b(5)
end subroutine
""")
        sub = module.functions["s"]
        # array parameters must follow the header order, not decl order
        assert sub.array_params == ["b", "a"]

    def test_call_binds_arrays_positionally(self):
        module = lower("""
program p
  real :: x(5), y(5)
  call s(x, y)
end program
subroutine s(b, a)
  real :: a(5), b(5)
end subroutine
""")
        from repro.ir import Call
        call = next(i for i in module.main.instructions()
                    if isinstance(i, Call))
        assert call.array_args == ["x", "y"]


class TestChecks:
    def test_access_gets_lower_and_upper_checks(self):
        main = main_of("""
program p
  integer :: i
  real :: a(100)
  i = 1
  a(i) = 0.0
end program
""")
        found = checks_of(main)
        assert len(found) == 2
        assert found[0].kind == "lower"
        assert found[1].kind == "upper"

    def test_canonical_form_of_offset_subscript(self):
        main = main_of("""
program p
  input integer :: n = 1
  integer :: a(5:10)
  a(2 * n - 1) = 1
end program
""")
        lower_check, upper_check = checks_of(main)
        # 2n-1 >= 5  ->  -2n <= -6 ; 2n-1 <= 10  ->  2n <= 11
        assert CanonicalCheck.of(lower_check) == \
            CanonicalCheck(LinearExpr({"n": -2}, 0), -6)
        assert CanonicalCheck.of(upper_check) == \
            CanonicalCheck(LinearExpr({"n": 2}, 0), 11)

    def test_symbolic_bound_folds_into_expression(self):
        module = lower("""
program p
  real :: x(5)
  call s(3, x)
end program
subroutine s(n, a)
  integer :: n, i
  real :: a(n)
  i = 1
  a(i) = 0.0
end subroutine
""")
        sub = module.functions["s"]
        upper = [c for c in checks_of(sub) if c.kind == "upper"][0]
        # i <= n  ->  i - n <= 0
        assert upper.linexpr == LinearExpr({"i": 1, "n": -1}, 0)

    def test_multi_dim_checks_per_dimension(self):
        main = main_of("""
program p
  integer :: i, j
  real :: a(10, 0:5)
  i = 1
  j = 1
  a(i, j) = 0.0
end program
""")
        assert len(checks_of(main)) == 4

    def test_constant_subscript_compile_time_check(self):
        main = main_of("""
program p
  real :: a(10)
  a(3) = 0.0
end program
""")
        for check in checks_of(main):
            assert check.linexpr.is_constant()

    def test_nonaffine_subscript_checks_temp(self):
        main = main_of("""
program p
  integer :: i, j
  real :: a(100)
  i = 2
  j = 3
  a(i * j) = 0.0
end program
""")
        upper = [c for c in checks_of(main) if c.kind == "upper"][0]
        symbols = upper.linexpr.symbols()
        assert len(symbols) == 1
        assert symbols[0].startswith("t")

    def test_shared_nonlinear_subscripts_share_family(self):
        main = main_of("""
program p
  integer :: i, j
  real :: a(100), b(100)
  i = 2
  j = 3
  a(i * j) = b(i * j)
end program
""")
        uppers = [c for c in checks_of(main) if c.kind == "upper"]
        assert uppers[0].linexpr == uppers[1].linexpr

    def test_checks_precede_access(self):
        main = main_of("""
program p
  integer :: i
  real :: a(10)
  i = 1
  a(i) = a(i) + 1.0
end program
""")
        instructions = list(main.instructions())
        first_access = next(idx for idx, inst in enumerate(instructions)
                            if isinstance(inst, (Load, Store)))
        assert isinstance(instructions[first_access - 1], Check)


class TestSemanticErrors:
    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            lower("program p\ni = 1\nend program")

    def test_undeclared_array(self):
        with pytest.raises(SemanticError):
            lower("program p\ninteger :: i\ni = 1\na(i) = 1\nend program")

    def test_duplicate_declaration(self):
        with pytest.raises(SemanticError):
            lower("program p\ninteger :: i\nreal :: i\nend program")

    def test_rank_mismatch(self):
        with pytest.raises(SemanticError):
            lower("program p\ninteger :: i\nreal :: a(5, 5)\n"
                  "i = 1\na(i) = 1.0\nend program")

    def test_real_do_variable(self):
        with pytest.raises(SemanticError):
            lower("program p\nreal :: x\ndo x = 1, 5\nend do\nend program")

    def test_zero_step(self):
        with pytest.raises(SemanticError):
            lower("program p\ninteger :: i\ndo i = 1, 5, 0\nend do\n"
                  "end program")

    def test_bound_variable_immutable(self):
        with pytest.raises(SemanticError):
            lower("""
program p
  input integer :: n = 5
  real :: x(5)
  call s(n, x)
end program
subroutine s(n, a)
  integer :: n
  real :: a(n)
  n = 10
end subroutine
""")

    def test_nonlogical_if_condition(self):
        with pytest.raises(SemanticError):
            lower("program p\ninteger :: i\ni = 1\nif (i) then\nend if\n"
                  "end program")

    def test_unknown_subroutine(self):
        with pytest.raises(SemanticError):
            lower("program p\ncall nope\nend program")

    def test_array_arg_must_be_name(self):
        with pytest.raises(SemanticError):
            lower("""
program p
  real :: x(5)
  call s(1)
end program
subroutine s(a)
  real :: a(5)
end subroutine
""")

    def test_input_only_in_main(self):
        with pytest.raises(SemanticError):
            lower("""
program p
end program
subroutine s()
  input integer :: n = 1
end subroutine
""")

    def test_arity_mismatch(self):
        with pytest.raises(SemanticError):
            lower("""
program p
  call s(1, 2)
end program
subroutine s(n)
  integer :: n
end subroutine
""")


class TestControlFlowShapes:
    def test_do_loop_blocks(self):
        main = main_of("""
program p
  integer :: i, s
  s = 0
  do i = 1, 10
    s = s + i
  end do
end program
""")
        names = [b.name for b in main.blocks]
        assert any(n.startswith("do_head") for n in names)
        assert any(n.startswith("do_body") for n in names)
        assert any(n.startswith("do_exit") for n in names)

    def test_unreachable_code_removed(self):
        main = main_of("""
program p
  integer :: i
  return
  i = 1
end program
""")
        # the dead assignment's block is unreachable and dropped
        from repro.ir import Assign
        assigns = [inst for inst in main.instructions()
                   if isinstance(inst, Assign)]
        assert assigns == []

    def test_if_without_else(self):
        main = main_of("""
program p
  integer :: i
  i = 0
  if (i < 1) then
    i = 2
  end if
  i = 3
end program
""")
        assert any(b.name.startswith("if_then") for b in main.blocks)

    def test_return_in_both_arms(self):
        main = main_of("""
program p
  integer :: i
  i = 0
  if (i < 1) then
    return
  else
    return
  end if
end program
""")
        # no fall-through join block needed
        assert all(b.terminator is not None for b in main.blocks)


class TestTypeHandling:
    def test_mixed_arithmetic_inserts_conversion(self):
        main = main_of("""
program p
  integer :: i
  real :: x
  i = 2
  x = i + 1.5
end program
""")
        from repro.ir import UnOp
        converts = [inst for inst in main.instructions()
                    if isinstance(inst, UnOp) and inst.op == "itor"]
        assert converts

    def test_store_coerces_to_element_type(self):
        main = main_of("""
program p
  real :: x
  integer :: a(5)
  x = 2.5
  a(1) = x
end program
""")
        from repro.ir import UnOp
        converts = [inst for inst in main.instructions()
                    if isinstance(inst, UnOp) and inst.op == "rtoi"]
        assert converts

    def test_lower_program_convenience(self):
        module = lower_program("program p\nend program")
        assert module.main.name == "p"
