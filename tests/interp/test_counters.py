"""Tests for the execution counters."""

from repro.interp import ExecutionCounters

from ..conftest import compile_and_run, run_baseline


class TestCounters:
    def test_initial_state(self):
        counters = ExecutionCounters()
        assert counters.instructions == 0
        assert counters.checks == 0
        assert counters.check_ratio() == 0.0

    def test_check_ratio(self):
        counters = ExecutionCounters()
        counters.instructions = 200
        counters.checks = 50
        assert counters.check_ratio() == 0.25

    def test_snapshot_is_plain_dict(self):
        counters = ExecutionCounters()
        counters.instructions = 3
        snap = counters.snapshot()
        assert snap["instructions"] == 3
        snap["instructions"] = 99
        assert counters.instructions == 3

    def test_load_store_weighting(self):
        # a 2D access costs 3 (1 + rank); a scalar op costs 1
        machine = run_baseline("""
program p
  real :: c(4, 4)
  c(1, 1) = 1.0
end program
""")
        # store(3) + nothing else but the return(1): 4 total
        assert machine.counters.instructions == 4

    def test_guarded_check_counter(self):
        from repro.checks import OptimizerOptions, Scheme
        machine = compile_and_run("""
program p
  input integer :: n = 5
  integer :: i
  real :: a(10)
  do i = 1, n
    a(i) = 1.0
  end do
end program
""", OptimizerOptions(scheme=Scheme.LLS))
        assert machine.counters.guarded_checks >= 1
        assert machine.counters.checks >= machine.counters.guarded_checks
