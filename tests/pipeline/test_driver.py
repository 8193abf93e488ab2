"""Tests for the end-to-end pipeline driver."""

import pytest

from repro import (CheckKind, OptimizerOptions, RangeTrap, Scheme,
                   compile_source)


class TestCompileSource:
    def test_default_pipeline(self, loop_program):
        program = compile_source(loop_program)
        machine = program.run({"n": 5})
        assert machine.output

    def test_unoptimized_variant(self, loop_program):
        naive = compile_source(loop_program, optimize=False)
        optimized = compile_source(loop_program)
        m1 = naive.run({"n": 5})
        m2 = optimized.run({"n": 5})
        assert m2.counters.checks < m1.counters.checks
        assert m1.output == m2.output

    def test_stats_exposed(self, loop_program):
        program = compile_source(loop_program,
                                 OptimizerOptions(scheme=Scheme.LLS))
        total = program.total_stats()
        assert total.checks_before > total.checks_after

    def test_trap_propagates(self):
        program = compile_source("""
program p
  input integer :: i = 11
  real :: a(10)
  a(i) = 1.0
end program
""")
        with pytest.raises(RangeTrap):
            program.run({"i": 11})

    def test_each_scheme_runs(self, loop_program):
        for scheme in Scheme:
            program = compile_source(loop_program,
                                     OptimizerOptions(scheme=scheme))
            machine = program.run({"n": 4})
            assert machine.output

    def test_inx_kind_runs(self, loop_program):
        program = compile_source(
            loop_program,
            OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX))
        machine = program.run({"n": 4})
        assert machine.output


class TestEngineCallOrder:
    """``run_compiled`` must not mutate the shared module (it used to
    destruct SSA in place, corrupting later ``run()`` counts)."""

    def test_run_counts_unaffected_by_run_compiled(self, loop_program):
        pristine = compile_source(loop_program)
        expected = pristine.run({"n": 8})

        program = compile_source(loop_program)
        program.run_compiled({"n": 8})
        machine = program.run({"n": 8})

        assert machine.output == expected.output
        assert machine.counters.instructions == \
            expected.counters.instructions
        assert machine.counters.checks == expected.counters.checks
        assert machine.counters.phis == expected.counters.phis

    def test_module_still_has_phis_after_run_compiled(self, loop_program):
        program = compile_source(loop_program)
        program.run_compiled({"n": 8})
        assert any(block.phis()
                   for function in program.module
                   for block in function.blocks)

    def test_interleaved_runs_are_stable(self, loop_program):
        program = compile_source(loop_program)
        first = program.run({"n": 8})
        backend = program.run_compiled({"n": 8})
        second = program.run({"n": 8})
        assert first.counters.instructions == second.counters.instructions
        assert first.counters.checks == second.counters.checks \
            == backend.counters.checks



class TestEngineNames:
    """An engine name outside ``ENGINE_NAMES`` is an error; it never
    falls back to the interpreter or the threaded engine."""

    def test_execute_rejects_misspelled_engine(self, loop_program):
        program = compile_source(loop_program)
        with pytest.raises(ValueError, match="specialised"):
            program.execute({"n": 5}, "specialised")

    def test_run_compiled_rejects_unknown_engine(self, loop_program):
        program = compile_source(loop_program)
        with pytest.raises(ValueError, match="bogus"):
            program.run_compiled({"n": 5}, engine="bogus")
        # once a threaded translation of the same module sits in the
        # backend cache and in the program's memo, neither may answer
        program.run_compiled({"n": 5}, engine="compiled")
        with pytest.raises(ValueError, match="bogus"):
            program.run_compiled({"n": 5}, engine="bogus")
