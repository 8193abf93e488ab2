"""Tests for the Markstein-Cocke-Markstein baseline scheme (extension)."""

import pytest

from repro.checks import CheckKind, OptimizerOptions, Scheme

from ..conftest import compile_and_run, run_baseline


def checks_for(source, scheme, inputs=None):
    return compile_and_run(source, OptimizerOptions(scheme=scheme),
                           inputs).counters.checks


SIMPLE_LOOP = """
program p
  input integer :: n = 25
  integer :: i
  real :: a(100)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""

CONDITIONAL_CHECKS = """
program p
  input integer :: n = 25
  integer :: i
  real :: a(100)
  do i = 1, n
    if (mod(i, 2) == 0) then
      a(i) = real(i)
    end if
  end do
  print a(2)
end program
"""

COMPOUND_SUBSCRIPT = """
program p
  input integer :: n = 25
  integer :: i
  real :: a(100)
  do i = 1, n
    a(2 * i + 1) = real(i)
  end do
  print a(3)
end program
"""


class TestMCM:
    def test_hoists_simple_index_checks(self):
        baseline = run_baseline(SIMPLE_LOOP).counters.checks
        mcm = checks_for(SIMPLE_LOOP, Scheme.MCM)
        assert mcm < baseline * 0.2

    def test_matches_lls_on_simple_loops(self):
        assert checks_for(SIMPLE_LOOP, Scheme.MCM) == \
            checks_for(SIMPLE_LOOP, Scheme.LLS)

    def test_misses_checks_under_branches(self):
        """Articulation-node restriction: checks inside an if are not
        candidates, unlike LLS's anticipatability (which also skips
        them here) -- but unlike LLS, MCM cannot catch them even when
        a sibling unconditional check exists."""
        source = """
program p
  input integer :: n = 25
  integer :: i
  real :: a(100), b(100)
  do i = 1, n
    b(i) = 1.0
    if (mod(i, 2) == 0) then
      a(i) = real(i)
    end if
  end do
  print a(2)
end program
"""
        mcm = checks_for(source, Scheme.MCM)
        lls = checks_for(source, Scheme.LLS)
        assert lls <= mcm

    def test_misses_compound_subscripts(self):
        """'Simple range expressions' only: 2*i+1 has coefficient 2."""
        mcm = checks_for(COMPOUND_SUBSCRIPT, Scheme.MCM)
        lls = checks_for(COMPOUND_SUBSCRIPT, Scheme.LLS)
        assert lls < mcm  # LLS substitutes the linear check; MCM cannot

    def test_never_worse_than_ni(self):
        for source in (SIMPLE_LOOP, CONDITIONAL_CHECKS, COMPOUND_SUBSCRIPT):
            assert checks_for(source, Scheme.MCM) <= \
                checks_for(source, Scheme.NI)

    def test_output_preserved(self):
        for source in (SIMPLE_LOOP, CONDITIONAL_CHECKS, COMPOUND_SUBSCRIPT):
            baseline = run_baseline(source)
            machine = compile_and_run(source,
                                      OptimizerOptions(scheme=Scheme.MCM))
            assert machine.output == baseline.output

    def test_traps_preserved(self):
        from repro.errors import RangeTrap
        baseline_trap = False
        try:
            run_baseline(SIMPLE_LOOP, {"n": 200})
        except RangeTrap:
            baseline_trap = True
        assert baseline_trap
        with pytest.raises(RangeTrap):
            compile_and_run(SIMPLE_LOOP, OptimizerOptions(scheme=Scheme.MCM),
                            {"n": 200})

    def test_zero_trip_guarded(self):
        machine = compile_and_run(SIMPLE_LOOP,
                                  OptimizerOptions(scheme=Scheme.MCM),
                                  {"n": 0})
        assert machine.counters.traps == 0


class TestMCMOnSuite:
    def test_between_ni_and_lls_everywhere(self):
        from repro.benchsuite import all_programs
        from repro.pipeline.stats import measure_baseline, measure_scheme

        for program in all_programs():
            base = measure_baseline(program.name, program.source,
                                    program.test_inputs)
            results = {}
            for scheme in (Scheme.NI, Scheme.MCM, Scheme.LLS):
                cell = measure_scheme(program.name, program.source,
                                      OptimizerOptions(scheme=scheme),
                                      base.dynamic_checks,
                                      program.test_inputs)
                results[scheme] = cell.percent_eliminated
            assert results[Scheme.NI] - 1e-9 <= results[Scheme.MCM] \
                <= results[Scheme.LLS] + 1e-9

    def test_loses_to_lls_on_trfd(self):
        """trfd's off+j subscripts are not 'simple': the paper's
        conjectured gap between MCM and loop-limit substitution."""
        from repro.benchsuite import get_program
        from repro.pipeline.stats import measure_baseline, measure_scheme

        program = get_program("trfd")
        base = measure_baseline(program.name, program.source,
                                program.test_inputs)
        mcm = measure_scheme(program.name, program.source,
                             OptimizerOptions(scheme=Scheme.MCM),
                             base.dynamic_checks, program.test_inputs)
        lls = measure_scheme(program.name, program.source,
                             OptimizerOptions(scheme=Scheme.LLS),
                             base.dynamic_checks, program.test_inputs)
        assert lls.percent_eliminated > mcm.percent_eliminated + 5.0


class TestMCMDeterminism:
    def test_one_module_per_program_within_a_process(self):
        """Hoist order must not follow heap addresses.  Loop blocks
        live in an identity-hashed set, so iterating it made MCM's
        output vary between compiles of one program in one process;
        allocating between compiles moves the blocks' addresses."""
        from repro.fuzz.generator import GeneratorConfig, generate_program
        from repro.ir.printer import format_module
        from repro.pipeline import compile_source

        source = generate_program(2, GeneratorConfig())
        printed = set()
        ballast = []
        for round_ in range(16):
            ballast.append([object() for _ in range(37 * round_)])
            for kind in (CheckKind.PRX, CheckKind.INX):
                program = compile_source(source, OptimizerOptions(
                    scheme=Scheme.MCM, kind=kind))
                printed.add((kind, format_module(program.module)))
        assert len(printed) == 2
