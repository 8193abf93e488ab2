"""Tests for the cross-call extension kernels in the registry."""

import pytest

from repro.benchsuite import (all_programs, cross_call_programs,
                              get_program)
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.interp.machine import Machine
from repro.pipeline import compile_source

EXTENSION_NAMES = ("ipsmooth", "ipduplex", "iphoist")


class TestRegistry:
    def test_names_and_suite(self):
        kernels = cross_call_programs()
        assert tuple(p.name for p in kernels) == EXTENSION_NAMES
        assert all(p.suite == "extension" for p in kernels)

    def test_get_program_finds_extension_kernels(self):
        for name in EXTENSION_NAMES:
            assert get_program(name).name == name

    def test_table1_suite_unchanged(self):
        # the paper tables iterate all_programs(); the extension
        # kernels must never leak in (table goldens depend on it)
        names = {p.name for p in all_programs()}
        assert len(all_programs()) == 10
        assert names.isdisjoint(EXTENSION_NAMES)

    def test_every_kernel_has_subroutines(self):
        for program in cross_call_programs():
            assert "subroutine" in program.source
            assert "call " in program.source
            # argument-carried symbolic bounds are the point
            assert "(1:m)" in program.source


def _dynamic_checks(program_def, inline):
    options = OptimizerOptions(scheme=Scheme.NI, kind=CheckKind.INX,
                               inline=inline)
    program = compile_source(program_def.source, options, verify_ir=True)
    machine = Machine(program.module, program_def.test_inputs)
    machine.run()
    return machine.counters.checks, list(machine.output)


class TestCrossCallElimination:
    @pytest.mark.parametrize("name", EXTENSION_NAMES)
    def test_inlined_strictly_beats_baseline(self, name):
        program_def = get_program(name)
        plain_checks, plain_out = _dynamic_checks(program_def, False)
        inlined_checks, inlined_out = _dynamic_checks(program_def, True)
        assert inlined_out == plain_out
        assert inlined_checks < plain_checks

    def test_iphoist_uses_the_prover(self):
        # the `p <= m` residue of relax is only discharged by the
        # symbolic prover once the caller's actuals are in view
        program_def = get_program("iphoist")
        options = OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX,
                                   inline=True)
        program = compile_source(program_def.source, options)
        proved = sum(s.proved for s in program.optimize_stats.values())
        assert proved > 0

    def test_prover_idle_without_inline(self):
        program_def = get_program("iphoist")
        options = OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX)
        program = compile_source(program_def.source, options)
        proved = sum(s.proved for s in program.optimize_stats.values())
        assert proved == 0


class TestInlineReachesEveryCaller:
    """Callers that compile on their own behalf honour ``inline``."""

    @pytest.mark.parametrize("name", EXTENSION_NAMES)
    def test_explain_inline_matches_run(self, name):
        from repro.reporting import explain_optimization

        program_def = get_program(name)
        options = OptimizerOptions(scheme=Scheme.LLS, kind=CheckKind.INX,
                                   inline=True)
        report = explain_optimization(program_def.source, options,
                                      program_def.test_inputs)
        run = compile_source(program_def.source, options).run(
            program_def.test_inputs)
        assert report.label == "INX-LLS+inl"
        assert report.dynamic_after == run.counters.checks
