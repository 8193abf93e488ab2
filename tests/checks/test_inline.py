"""Unit tests for the subroutine inliner (pre-SSA pass)."""

from repro.checks.inline import InlineStats, inline_module
from repro.ir.instructions import Assign, Call, Check
from repro.pipeline.driver import compile_source
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.interp.machine import Machine

from ..conftest import lower


def _lowered(source):
    """Parse + lower with naive checks, no SSA: the inliner's input."""
    return lower(source)


def _main(module):
    return next(f for f in module if f.is_main)


def _calls(function):
    return [inst for inst in function.instructions()
            if isinstance(inst, Call)]


SIMPLE = """
program p
  input integer :: n = 5
  integer :: i
  real :: a(1:n)
  do i = 1, n
    a(i) = real(i)
    call put(n, i, a)
  end do
  print a(1)
end program

subroutine put(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = x(j) + 1.0
end subroutine
"""


class TestBasicInlining:
    def test_call_replaced_by_clone(self):
        module = _lowered(SIMPLE)
        stats = inline_module(module)
        assert stats.inlined_calls == 1
        assert not _calls(_main(module))
        # the clone's blocks are spliced into the caller under a
        # site-stamped name
        names = {b.name for b in _main(module).blocks}
        assert any(name.startswith("inl0_put_") for name in names)

    def test_cloned_checks_carry_context(self):
        module = _lowered(SIMPLE)
        inline_module(module)
        contexts = {getattr(inst, "context", "")
                    for inst in _main(module).instructions()
                    if isinstance(inst, Check)}
        assert any(ctx.startswith("in put (call at line ")
                   for ctx in contexts)
        # the caller's own checks keep an empty context
        assert "" in contexts

    def test_callee_function_left_intact(self):
        module = _lowered(SIMPLE)
        before = sum(1 for _ in module.functions["put"].instructions())
        inline_module(module)
        after = sum(1 for _ in module.functions["put"].instructions())
        assert before == after

    def test_array_param_renamed_to_caller_array(self):
        module = _lowered(SIMPLE)
        inline_module(module)
        arrays = {getattr(inst, "array", None)
                  for inst in _main(module).instructions()
                  if isinstance(inst, Check)}
        arrays.discard(None)
        # every cloned check now names the caller's array, never the
        # callee's formal
        assert "x" not in arrays
        assert "a" in arrays

    def test_stats_dict_shape(self):
        stats = InlineStats()
        assert set(stats.as_dict()) == {
            "inlined_calls", "skipped_recursive",
            "skipped_local_arrays", "skipped_budget"}


class TestArgumentBinding:
    def test_aliased_scalar_joins_caller_families(self):
        # `put` never assigns m or j, so both alias the caller's n/i:
        # the cloned check's symbols are the caller's own
        module = _lowered(SIMPLE)
        inline_module(module)
        main = _main(module)
        cloned = [inst for inst in main.instructions()
                  if isinstance(inst, Check)
                  and getattr(inst, "context", "")]
        assert cloned
        for check in cloned:
            for sym in check.linexpr.symbols():
                assert not sym.startswith(("m.", "j.")), check

    def test_assigned_param_gets_fresh_copy(self):
        # `bump` assigns its j parameter (array bounds may never be
        # assigned, so the mutated param is a plain scalar): binding
        # must copy, never alias, and the caller's i stays untouched
        source = """
program p
  input integer :: n = 4
  integer :: i
  real :: a(1:n)
  do i = 1, n
    a(i) = 0.0
    call bump(n, i, a)
  end do
  print a(1)
end program

subroutine bump(m, j, x)
  integer :: m, j
  real :: x(1:m)
  j = j + 1
  if (j <= m) then
    x(j) = 1.0
  end if
end subroutine
"""
        module = _lowered(source)
        inline_module(module)
        main = _main(module)
        names = {inst.def_var().name for inst in main.instructions()
                 if inst.def_var() is not None}
        assert any(name.startswith("j.i") for name in names)
        # the caller's loop variable is only ever assigned by its own
        # loop increment, never by the clone's j mutation
        for inst in main.instructions():
            if isinstance(inst, Assign) and inst.def_var() is not None \
                    and inst.def_var().name == "i":
                for block in main.blocks:
                    if inst in block.instructions:
                        assert not block.name.startswith("inl")

    def test_local_scalars_freshened(self):
        module = _lowered(SIMPLE)
        caller_scalars = set(_main(module).scalar_types)
        inline_module(module)
        new_scalars = set(_main(module).scalar_types) - caller_scalars
        # `put` has no locals beyond its params here, so any fresh
        # names must be site-stamped
        for name in new_scalars:
            assert ".i" in name


class TestEligibility:
    def test_self_recursion_never_entered(self):
        source = """
program p
  input integer :: n = 3
  real :: a(1:n)
  call down(n, a)
  print a(1)
end program

subroutine down(m, x)
  integer :: m
  real :: x(1:m)
  x(m) = 1.0
  if (m > 1) then
    call down(m - 1, x)
  end if
end subroutine
"""
        module = _lowered(source)
        stats = inline_module(module)
        assert stats.inlined_calls == 0
        assert stats.skipped_recursive >= 1
        assert _calls(_main(module))

    def test_mutual_recursion_never_entered(self):
        source = """
program p
  input integer :: n = 3
  real :: a(1:n)
  call ping(n, a)
  print a(1)
end program

subroutine ping(m, x)
  integer :: m
  real :: x(1:m)
  if (m > 1) then
    call pong(m - 1, x)
  end if
end subroutine

subroutine pong(m, x)
  integer :: m
  real :: x(1:m)
  x(m) = 2.0
  if (m > 1) then
    call ping(m - 1, x)
  end if
end subroutine
"""
        module = _lowered(source)
        stats = inline_module(module)
        assert stats.inlined_calls == 0
        assert stats.skipped_recursive >= 1

    def test_local_array_callee_skipped(self):
        source = """
program p
  input integer :: n = 4
  real :: a(1:n)
  call scratch(n, a)
  print a(1)
end program

subroutine scratch(m, x)
  integer :: m, k
  real :: x(1:m)
  real :: tmp(8)
  do k = 1, m
    tmp(k) = x(k)
    x(k) = tmp(k) * 2.0
  end do
end subroutine
"""
        module = _lowered(source)
        stats = inline_module(module)
        assert stats.inlined_calls == 0
        assert stats.skipped_local_arrays >= 1
        assert _calls(_main(module))


class TestBudgets:
    def test_callee_size_budget(self):
        module = _lowered(SIMPLE)
        stats = inline_module(module, max_callee_size=1)
        assert stats.inlined_calls == 0
        assert stats.skipped_budget >= 1
        assert _calls(_main(module))

    def test_caller_size_budget(self):
        module = _lowered(SIMPLE)
        stats = inline_module(module, max_size=1)
        assert stats.inlined_calls == 0
        assert stats.skipped_budget >= 1

    def test_depth_budget_stops_transitive_chains(self):
        source = """
program p
  input integer :: n = 4
  real :: a(1:n)
  call one(n, a)
  print a(1)
end program

subroutine one(m, x)
  integer :: m
  real :: x(1:m)
  call two(m, x)
end subroutine

subroutine two(m, x)
  integer :: m
  real :: x(1:m)
  x(1) = 1.0
end subroutine
"""
        module = _lowered(source)
        stats = inline_module(module, max_depth=1)
        # two -> one inlines (depth 1); one -> main is then depth 2
        # and must be declined
        assert stats.skipped_budget >= 1
        assert _calls(_main(module))

    def test_full_transitive_inlining(self):
        source = """
program p
  input integer :: n = 4
  real :: a(1:n)
  call one(n, a)
  print a(1)
end program

subroutine one(m, x)
  integer :: m
  real :: x(1:m)
  call two(m, x)
end subroutine

subroutine two(m, x)
  integer :: m
  real :: x(1:m)
  x(1) = 1.0
end subroutine
"""
        module = _lowered(source)
        stats = inline_module(module)
        assert stats.inlined_calls >= 2
        assert not _calls(_main(module))


class TestSemantics:
    def _outputs(self, source, inputs=None):
        outs = []
        for inline in (False, True):
            options = OptimizerOptions(scheme=Scheme.NI,
                                       kind=CheckKind.INX, inline=inline)
            program = compile_source(source, options, verify_ir=True)
            machine = Machine(program.module, inputs)
            machine.run()
            outs.append(list(machine.output))
        return outs

    def test_output_identical_simple(self):
        plain, inlined = self._outputs(SIMPLE)
        assert plain == inlined

    def test_output_identical_with_residual_calls(self):
        # recursive callee stays a real call inside an inlined world
        source = """
program p
  input integer :: n = 4
  integer :: i
  real :: a(1:n)
  do i = 1, n
    a(i) = real(i)
    call put(n, i, a)
  end do
  call down(n, a)
  print a(1)
  print a(n)
end program

subroutine put(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = x(j) * 2.0
end subroutine

subroutine down(m, x)
  integer :: m
  real :: x(1:m)
  x(m) = x(m) + 0.5
  if (m > 1) then
    call down(m - 1, x)
  end if
end subroutine
"""
        plain, inlined = self._outputs(source)
        assert plain == inlined

    def test_zero_extent_arrays(self):
        # n = 0: every symbolically-bounded array is empty, loops run
        # zero times, and the inlined program must agree exactly
        source = """
program p
  input integer :: n = 0
  integer :: i
  real :: a(1:n)
  real :: total
  total = 0.0
  do i = 1, n
    a(i) = 1.0
    call put(n, i, a)
    total = total + a(i)
  end do
  print total
end program

subroutine put(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = x(j) + 1.0
end subroutine
"""
        plain, inlined = self._outputs(source, {"n": 0})
        assert plain == inlined
