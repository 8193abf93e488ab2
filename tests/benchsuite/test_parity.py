"""Engine parity: the interpreter and both Python back-ends must agree.

For every program in the registry under PRX-LLS (the paper's headline
configuration), ``run()`` and ``run_compiled()`` on either back-end
must produce the same output and the same value for every
:data:`~repro.benchsuite.runner.BENCH_PARITY_FIELDS` counter — and
since ``run_compiled`` destructs SSA on a private copy, calling them
in either order must not change either engine's numbers.
"""

import pytest

from repro.benchsuite import BENCH_PARITY_FIELDS, all_programs
from repro.checks import OptimizerOptions, Scheme
from repro.pipeline import compile_source

from ..conftest import assert_engine_parity

LLS = OptimizerOptions(scheme=Scheme.LLS)

PROGRAMS = all_programs()


@pytest.mark.parametrize("program", PROGRAMS,
                         ids=[p.name for p in PROGRAMS])
class TestEngineParity:
    def test_outputs_and_check_counts_match(self, program):
        compiled = compile_source(program.source, LLS)
        counters = assert_engine_parity(compiled, program.test_inputs)
        # both back-ends run destructed SSA, so they agree on every
        # counter, phis included
        assert counters["specialized"] == counters["compiled"]
        # destructed SSA charges two copies per phi; the interpreter
        # charges one move — parity deliberately excludes the field
        assert "phis" not in BENCH_PARITY_FIELDS
        assert counters["compiled"]["phis"] >= counters["interp"]["phis"]

    def test_call_order_does_not_matter(self, program):
        run_first = compile_source(program.source, LLS)
        a = run_first.run(program.test_inputs)

        compiled_first = compile_source(program.source, LLS)
        compiled_first.run_compiled(program.test_inputs)
        b = compiled_first.run(program.test_inputs)

        assert a.output == b.output
        assert a.counters.checks == b.counters.checks
        assert a.counters.instructions == b.counters.instructions
