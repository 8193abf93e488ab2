"""Tests for the parallel suite runner and the shared frontend cache.

The acceptance properties of the measurement harness live here:

* results are identical (per-cell) for any ``jobs`` value;
* the frontend (parse+lower+SSA) runs at most once per benchmark
  program per table run, proven by cache/pass-trace counters;
* pool failures degrade to serial execution, not to an error.
"""

import pytest

from repro.benchsuite import (all_programs, run_compare, run_program,
                              run_suite, run_table1, run_table2, run_table3)
from repro.checks import CheckKind, ImplicationMode, Scheme
from repro.pipeline import FrontendCache

FIRST = all_programs()[:2]


def cell_values(cells):
    return {key: (cell.dynamic_checks, cell.baseline_checks,
                  cell.static_checks)
            for key, cell in cells.items()}


class TestRunProgram:
    def test_covers_both_tables(self):
        baseline, table2, table3, stats = run_program("vortex", small=True)
        assert baseline.dynamic_checks > 0
        assert len(table2) == 18      # 2 kinds x 9 schemes
        assert len(table3) == 12      # 2 kinds x 6 rows
        assert all(name == "vortex" for _, name in table2)

    def test_frontend_compiled_exactly_once(self):
        _, _, _, stats = run_program("vortex", small=True)
        assert stats["frontend_compiles"] == 1
        # baseline + 30 cells + 2 LO training runs (one per kind) all
        # hit the single cached frontend
        assert stats["hits"] == 32


class TestRunSuite:
    def test_serial_and_parallel_agree(self):
        serial = run_suite(FIRST, small=True, jobs=1)
        pooled = run_suite(FIRST, small=True, jobs=2)
        assert serial.names == pooled.names
        assert cell_values(serial.table2) == cell_values(pooled.table2)
        assert cell_values(serial.table3) == cell_values(pooled.table3)
        assert [r.dynamic_checks for r in serial.rows] == \
            [r.dynamic_checks for r in pooled.rows]

    def test_frontend_once_per_program_any_jobs(self):
        for jobs in (1, 2):
            suite = run_suite(FIRST, small=True, jobs=jobs)
            assert suite.frontend_compiles() == len(FIRST)
            for stats in suite.cache_stats.values():
                assert stats["frontend_compiles"] == 1

    def test_deterministic_ordering(self):
        suite = run_suite(FIRST, small=True, jobs=2)
        assert suite.names == [p.name for p in FIRST]
        assert [r.name for r in suite.rows] == suite.names

    def test_pool_failure_falls_back_to_serial(self, no_process_pool,
                                               capsys):
        suite = run_suite(FIRST, small=True, jobs=2)
        assert not suite.parallel
        assert suite.frontend_compiles() == len(FIRST)
        err = capsys.readouterr().err
        assert no_process_pool in err
        assert "falling back to serial" in err


class TestRunnerCacheSharing:
    def test_tables_share_one_frontend_per_program(self):
        """The acceptance counter: across a whole table run (Tables 1,
        2, and 3) the frontend executes once per program."""
        cache = FrontendCache()
        rows = run_table1(FIRST, small=True, cache=cache)
        cells2 = run_table2(FIRST, kinds=(CheckKind.PRX,),
                            schemes=(Scheme.NI, Scheme.LLS), small=True,
                            cache=cache)
        cells3 = run_table3(
            FIRST, kinds=(CheckKind.PRX,),
            rows=((Scheme.NI, ImplicationMode.ALL),
                  (Scheme.NI, ImplicationMode.NONE)),
            small=True, cache=cache)
        assert cache.frontend_compiles == len(FIRST)
        assert len(rows) == len(FIRST)
        # every cell after the first compile reused the cache, which
        # its pass trace proves: no fresh parse, one cached frontend
        for cell in list(cells2.values()) + list(cells3.values()):
            assert cell.trace.run_count("parse") == 0
            assert cell.trace.frontend_was_cached()

    def test_precomputed_baselines_skip_reexecution(self):
        cache = FrontendCache()
        rows = run_table1(FIRST, small=True, cache=cache)
        baselines = {row.name: row for row in rows}
        cells = run_table2(FIRST, kinds=(CheckKind.PRX,),
                           schemes=(Scheme.NI,), small=True, cache=cache,
                           baselines=baselines)
        for (label, name), cell in cells.items():
            assert cell.baseline_checks == baselines[name].dynamic_checks


class TestRunCompare:
    SOURCE = """
program demo
  input integer :: n = 20
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""

    def test_scheme_order_and_agreement(self):
        serial = run_compare(self.SOURCE, CheckKind.PRX, 42, {"n": 15},
                             jobs=1)
        assert [scheme for scheme, _ in serial] == list(Scheme)
        pooled = run_compare(self.SOURCE, CheckKind.PRX, 42, {"n": 15},
                             jobs=2)
        assert [c.dynamic_checks for _, c in serial] == \
            [c.dynamic_checks for _, c in pooled]

    def test_pool_failure_falls_back_to_serial(self, no_process_pool,
                                               capsys):
        cells = run_compare(self.SOURCE, CheckKind.PRX, 42, {"n": 15},
                            jobs=2)
        assert [scheme for scheme, _ in cells] == list(Scheme)
        err = capsys.readouterr().err
        assert no_process_pool in err
        assert "falling back to serial" in err
