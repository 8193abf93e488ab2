"""Engine agreement on the suite's programs, and ``tables --engine``:
every engine computes the same counts and renders the same tables."""

from repro.benchsuite import BENCH_PARITY_FIELDS, all_programs, run_suite
from repro.checks import OptimizerOptions
from repro.pipeline import compile_source
from repro.reporting import (TABLE3_LABELS, render_tables_text,
                             table2_labels, tables_to_dict)

from ..conftest import assert_engine_parity


def small_parity(count=2):
    """Every engine's counter snapshot for the first ``count`` registry
    programs, compiled under the default options (PRX-LLS) and run on
    their small inputs; output and parity fields are asserted equal."""
    rows = []
    for program in all_programs()[:count]:
        compiled = compile_source(program.source, OptimizerOptions())
        rows.append(assert_engine_parity(compiled, program.test_inputs))
    return rows


class TestRunBench:
    def test_counts_and_output_agree_across_engines(self):
        for counters in small_parity():
            for field in BENCH_PARITY_FIELDS:
                assert counters["interp"][field] == \
                    counters["compiled"][field], field
                assert counters["interp"][field] == \
                    counters["specialized"][field], field
            # both back-ends run destructed SSA, so they agree on
            # every counter, phis included
            assert counters["specialized"] == counters["compiled"]

    def test_phis_differ_by_design(self):
        # destructed SSA charges two copies per phi; the interpreter
        # charges one move — parity deliberately excludes the field
        counters = small_parity(count=1)[0]
        assert "phis" not in BENCH_PARITY_FIELDS
        assert counters["compiled"]["phis"] >= counters["interp"]["phis"]


class TestTablesEngine:
    def test_tables_text_is_byte_identical_across_engines(self):
        programs = all_programs()[:2]
        interp = run_suite(programs, small=True, jobs=1)
        compiled = run_suite(programs, small=True, jobs=1,
                             engine="compiled")
        assert render_tables_text(interp) == render_tables_text(compiled)

    def test_tables_document_records_engine(self):
        suite = run_suite(all_programs()[:1], small=True, jobs=1,
                          engine="compiled")
        doc = tables_to_dict(suite, True, table2_labels(), TABLE3_LABELS)
        assert doc["engine"] == "compiled"
