"""Compile-time cost of range-check optimization (the paper's "Range"
and "Nascent" columns of Tables 2 and 3).

Each benchmark times the *optimizer phase only* over the full
ten-program suite under one configuration, so the relative ordering
across schemes can be compared with the paper's: NI is cheapest, the
preheader schemes (LI, LLS) are moderate, the PRE-based schemes (CS,
LNI, SE) and ALL are the most expensive, and INX adds the cost of
induction analysis and rewriting on top of any scheme.
"""

import pytest

from repro.benchsuite import all_programs
from repro.checks import (CheckKind, ImplicationMode, OptimizerOptions,
                          Scheme, optimize_module)
from repro.pipeline import compile_source


def optimize_suite(options):
    for program in all_programs():
        module = compile_source(program.source, optimize=False).module
        optimize_module(module, options)


@pytest.mark.benchmark(group="compile-time-scheme")
@pytest.mark.parametrize("scheme", list(Scheme),
                         ids=[s.value for s in Scheme])
def test_optimize_suite_per_scheme(benchmark, scheme):
    benchmark(optimize_suite, OptimizerOptions(scheme=scheme))


@pytest.mark.benchmark(group="compile-time-kind")
@pytest.mark.parametrize("kind", list(CheckKind),
                         ids=[k.value for k in CheckKind])
def test_optimize_suite_per_kind(benchmark, kind):
    benchmark(optimize_suite,
              OptimizerOptions(scheme=Scheme.LLS, kind=kind))


@pytest.mark.benchmark(group="compile-time-mode")
@pytest.mark.parametrize("mode", list(ImplicationMode),
                         ids=[m.value for m in ImplicationMode])
def test_optimize_suite_per_mode(benchmark, mode):
    benchmark(optimize_suite,
              OptimizerOptions(scheme=Scheme.LLS, implication=mode))


@pytest.mark.benchmark(group="compile-time-frontend")
def test_frontend_suite(benchmark):
    """Parse + lower + SSA for the whole suite (the paper's 'Nascent'
    baseline outside the range-check phase)."""
    def frontend():
        for program in all_programs():
            compile_source(program.source, optimize=False)

    benchmark(frontend)
