"""Tests for PRE-based check placement (SE and LNI)."""

from repro.checks import (CheckAnalysis, CheckImplicationGraph,
                          OptimizerOptions, Scheme, ids_of,
                          latest_insertions, optimize_module,
                          safe_earliest_insertions, universe_from_function)
from repro.ir import Check

from ..conftest import compile_and_run, lower_ssa, run_baseline

PARTIAL = """
program partial
  input integer :: n = 20, c = 1
  integer :: i
  real :: a(100), b(100)
  do i = 1, n
    if (mod(i, 2) == 0) then
      a(i) = 1.0
    end if
    b(i) = 2.0
  end do
  print b(1)
end program
"""


def insertion_sets(source, earliest=True):
    module = lower_ssa(source)
    main = module.main
    universe = universe_from_function(main)
    cig = CheckImplicationGraph(universe)
    analysis = CheckAnalysis(main, universe, cig)
    if earliest:
        return safe_earliest_insertions(analysis), main
    return latest_insertions(analysis), main


class TestInsertionSets:
    def test_se_finds_insertion_points(self):
        insertions, _ = insertion_sets(PARTIAL, earliest=True)
        assert insertions  # something is partially redundant

    def test_lni_finds_insertion_points(self):
        insertions, _ = insertion_sets(PARTIAL, earliest=False)
        assert insertions

    def test_straightline_has_no_insertions(self):
        insertions, _ = insertion_sets("""
program p
  input integer :: n = 1
  real :: a(10)
  a(n) = 1.0
end program
""", earliest=True)
        # everything is fully available/anticipatable at its only site;
        # SE may propose the entry placement of the entry-anticipatable
        # checks, which is the same point -- allow empty or entry-only
        for (pred, succ), facts in insertions.items():
            assert pred is None  # only the virtual entry edge

    def test_lni_is_lazier_than_se(self):
        se, main = insertion_sets(PARTIAL, earliest=True)
        lni, _ = insertion_sets(PARTIAL, earliest=False)
        # LNI inserts no earlier (no fewer facts overall, placed lower)
        assert sum(len(list(ids_of(v))) for v in lni.values()) <= \
            sum(len(list(ids_of(v))) for v in se.values()) + 4


class TestDynamicEffects:
    def test_se_beats_ni_on_partial_redundancy(self):
        ni = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.NI))
        se = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.SE))
        assert se.counters.checks < ni.counters.checks

    def test_lni_beats_ni_on_partial_redundancy(self):
        ni = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.NI))
        lni = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.LNI))
        assert lni.counters.checks < ni.counters.checks

    def test_se_at_least_as_good_as_lni(self):
        se = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.SE))
        lni = compile_and_run(PARTIAL, OptimizerOptions(scheme=Scheme.LNI))
        assert se.counters.checks <= lni.counters.checks

    def test_output_preserved(self):
        baseline = run_baseline(PARTIAL)
        for scheme in (Scheme.SE, Scheme.LNI):
            machine = compile_and_run(PARTIAL,
                                      OptimizerOptions(scheme=scheme))
            assert machine.output == baseline.output

    def test_figure5_unprofitability(self):
        """Figure 5: SE can add checks on the else path."""
        source = """
program fig5
  input integer :: i = 3, c = 0
  integer :: a(1:10)
  if (c > 0) then
    a(i) = 1
  else
    a(i + 4) = 2
  end if
  print a(5)
end program
"""
        baseline = run_baseline(source, {"i": 3, "c": 0})
        se = compile_and_run(source, OptimizerOptions(scheme=Scheme.SE),
                             {"i": 3, "c": 0})
        # on the else path SE performs (i <= 10)-class work that the
        # naive program skipped: not fewer checks on this path
        assert se.counters.checks >= 2
        assert se.output == baseline.output
