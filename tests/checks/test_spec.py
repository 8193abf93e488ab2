"""Tests for the SPEC scheme: speculative convex-hull preheader
guards with a fully checked fall-back clone (loop versioning).

The contract under test:

* the guarded fast path executes **zero** per-iteration checks for
  covered families;
* a guard miss dispatches to the slow-path clone, whose behavior is
  exactly the NI program's (same traps, same output);
* zero-trip loops never evaluate the envelope guard (``spec_guards``
  stays 0) and never trap;
* families the envelope cannot cover degrade to LLS placement.
"""

import pytest

from repro.checks.config import OptimizerOptions, Scheme
from repro.errors import RangeTrap
from repro.interp import Machine
from repro.pipeline.driver import compile_source

SPEC = OptimizerOptions(scheme=Scheme.SPEC)
LLS = OptimizerOptions(scheme=Scheme.LLS)

HULL = """
program p
  input integer :: n = 50
  integer :: i
  integer :: a(100)
  do i = 1, n
    a(i) = i
    a(i+1) = 2
  end do
  print a(3)
end program
"""


def run_counters(source, options, inputs):
    """Counters + output + trap flag, trap-tolerant."""
    program = compile_source(source, options)
    machine = Machine(program.module, inputs)
    trapped = False
    try:
        machine.run()
    except RangeTrap:
        trapped = True
    return machine.counters, list(machine.output), trapped


class TestFastPath:
    def test_zero_checks_on_the_fast_path(self):
        counters, output, trapped = run_counters(HULL, SPEC, {"n": 50})
        assert not trapped
        assert counters.checks == 0
        assert counters.spec_guards == 1
        assert counters.spec_misses == 0

    def test_output_matches_baseline(self):
        baseline = compile_source(HULL, optimize=False)
        optimized = compile_source(HULL, SPEC)
        assert optimized.run({"n": 50}).output == \
            baseline.run({"n": 50}).output

    def test_envelope_exactly_at_declared_bound(self):
        # i+1 runs to n+1 = 100 = the declared upper bound: the
        # envelope holds with zero slack and the fast path is taken
        counters, _, trapped = run_counters(HULL, SPEC, {"n": 99})
        assert not trapped
        assert counters.checks == 0
        assert counters.spec_guards == 1
        assert counters.spec_misses == 0


class TestZeroTrip:
    @pytest.mark.parametrize("n", [0, -7])
    def test_guard_never_fires(self, n):
        counters, output, trapped = run_counters(HULL, SPEC, {"n": n})
        assert not trapped
        # the trip pre-guard short-circuits: the envelope is never
        # evaluated, so neither spec counter moves
        assert counters.spec_guards == 0
        assert counters.spec_misses == 0
        assert counters.checks == 0
        assert output == [0]


class TestSlowPath:
    def test_guard_miss_enters_checked_clone(self):
        # n = 100 drives a(i+1) to a(101): the envelope guard misses
        # and the slow path traps exactly where naive checking does
        counters, _, trapped = run_counters(HULL, SPEC, {"n": 100})
        assert trapped
        assert counters.spec_guards == 1
        assert counters.spec_misses == 1
        # the clone really executed its checks before trapping
        assert counters.checks > 0

    def test_trap_parity_with_baseline(self):
        for n in (100, 150):
            _, base_out, base_trap = run_counters(
                HULL, OptimizerOptions(scheme=Scheme.NI), {"n": n})
            _, spec_out, spec_trap = run_counters(HULL, SPEC, {"n": n})
            assert spec_trap == base_trap
            assert spec_out == base_out


class TestSlowPathProvenance:
    """The slow-path clone keeps each inlined check's call-site context,
    so a trap there names the callee and call line as NI's does."""

    CALLER = """
program p
  input integer :: n = 5, k = 9
  integer :: i
  real :: a(1:n)
  a(1) = 0.0
  do i = 1, k
    call put(n, k, a)
  end do
  print a(1)
end program

subroutine put(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = 1.0
end subroutine
"""
    INPUTS = {"n": 5, "k": 9}

    def test_the_slow_path_traps(self):
        options = OptimizerOptions(scheme=Scheme.SPEC, inline=True)
        counters, _, trapped = run_counters(self.CALLER, options,
                                            self.INPUTS)
        assert trapped
        assert counters.spec_misses == 1

    @pytest.mark.parametrize("engine", ["interp", "compiled", "specialized"])
    def test_trap_message_matches_ni(self, engine):
        messages = []
        for scheme in (Scheme.NI, Scheme.SPEC):
            program = compile_source(
                self.CALLER, OptimizerOptions(scheme=scheme, inline=True))
            with pytest.raises(RangeTrap) as trap:
                if engine == "interp":
                    program.run(self.INPUTS)
                else:
                    program.run_compiled(self.INPUTS, engine=engine)
            messages.append(str(trap.value))
        assert messages[0].endswith(" in put (call at line 8)")
        assert messages[1] == messages[0]


class TestNegativeOffset:
    NEG = """
program p
  input integer :: n = 100
  real :: a(100)
  integer :: i
  do i = 3, n
    a(i-2) = 1.0
  end do
  print a(1)
end program
"""

    def test_lower_family_covered(self):
        # the lower-bound family's hull member is a(i-2) at i = 3,
        # i.e. subscript 1 -- exactly the declared lower bound
        counters, _, trapped = run_counters(self.NEG, SPEC, {"n": 102})
        assert not trapped
        assert counters.checks == 0
        assert counters.spec_guards == 1
        assert counters.spec_misses == 0

    def test_overflow_still_traps(self):
        counters, _, trapped = run_counters(self.NEG, SPEC, {"n": 103})
        assert trapped
        assert counters.spec_misses == 1


class TestDegradation:
    UNPROVABLE = """
program p
  input integer :: n = 10
  real :: a(100)
  integer :: i, j
  j = 1
  do i = 1, n
    a(j) = 1.0
    j = j + 2
  end do
  print a(1)
end program
"""

    def test_uncoverable_family_degrades_to_lls(self):
        # the subscript walks a secondary induction variable the
        # envelope cannot express; SPEC must not version the loop and
        # must fall back to exactly LLS's placement
        spec_counters, spec_out, _ = run_counters(
            self.UNPROVABLE, SPEC, {"n": 10})
        lls_counters, lls_out, _ = run_counters(
            self.UNPROVABLE, LLS, {"n": 10})
        assert spec_out == lls_out
        assert spec_counters.spec_guards == 0
        assert spec_counters.effective_checks() == \
            lls_counters.effective_checks()


class TestEngineParity:
    @pytest.mark.parametrize("n", [50, 99, 100, 0])
    def test_all_three_engines_agree(self, n):
        reference = None
        for engine in ("interp", "compiled", "specialized"):
            program = compile_source(HULL, SPEC)
            trapped = False
            try:
                if engine == "interp":
                    result = program.run({"n": n})
                else:
                    result = program.run_compiled({"n": n}, engine=engine)
            except RangeTrap:
                trapped = True
                result = None
            row = (trapped,
                   None if result is None else tuple(result.output),
                   None if result is None else (
                       result.counters.checks,
                       result.counters.spec_guards,
                       result.counters.spec_misses))
            if reference is None:
                reference = (engine, row)
            else:
                assert row == reference[1], \
                    "%s disagrees with %s" % (engine, reference[0])


class TestRegistryWins:
    @pytest.mark.parametrize("name", ["vortex", "linpackd"])
    def test_spec_never_worse_than_lls(self, name):
        # acceptance: dynamic effective checks under SPEC <= LLS on
        # registry programs (the envelope guard subsumes the per-family
        # preheader checks it replaces)
        from repro.benchsuite.registry import get_program
        from repro.pipeline.stats import measure_baseline, measure_scheme

        program = get_program(name)
        inputs = program.test_inputs
        baseline = measure_baseline(program.name, program.source, inputs)
        rows = {}
        for scheme in (Scheme.SPEC, Scheme.LLS):
            cell = measure_scheme(
                program.name, program.source,
                OptimizerOptions(scheme=scheme),
                baseline.dynamic_checks, inputs)
            rows[scheme] = cell.dynamic_checks
        assert rows[Scheme.SPEC] <= rows[Scheme.LLS]


class TestBenchParityGate:
    def test_registry_program_counts_match_under_spec(self):
        # the engine parity gate includes the spec counters: a drift
        # between engines on a versioned registry program must fail
        from repro.benchsuite.registry import get_program

        from ..conftest import assert_engine_parity

        program = get_program("vortex")
        compiled = compile_source(program.source, SPEC)
        counters = assert_engine_parity(compiled, program.test_inputs)
        assert counters["interp"]["spec_guards"] > 0


class TestStats:
    def test_speculated_counts_versioned_loops(self):
        from repro.checks.optimizer import optimize_module
        from repro.pipeline.driver import run_frontend

        module = run_frontend(HULL)  # parse + lower + SSA
        stats = optimize_module(module, SPEC)
        assert sum(s.speculated for s in stats.values()) == 1
