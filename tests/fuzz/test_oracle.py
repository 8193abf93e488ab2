"""Tests for the differential safety oracle."""

from repro.checks.config import (CheckKind, ImplicationMode, OptimizerOptions,
                                 Scheme)
from repro.fuzz import (Oracle, all_configurations, config_by_label,
                        generate_program, inline_configurations)
from repro.fuzz.oracle import INLINE_SCHEMES

CLEAN = """
program p
  input integer :: n = 8
  integer :: i
  real :: a(10)
  do i = 1, n
    a(i) = 1.0
  end do
  print a(3)
end program
"""

TRAPPING = """
program p
  input integer :: n = 20
  integer :: i
  real :: a(10)
  do i = 1, n
    a(i) = 1.0
  end do
  print a(3)
end program
"""

# configs covering every scheme once: cheap enough for unit tests
FAST = [OptimizerOptions(scheme=s) for s in Scheme]


class TestConfigurationMatrix:
    def test_full_matrix_size(self):
        assert len(all_configurations()) == \
            len(Scheme) * len(CheckKind) * len(ImplicationMode)

    def test_labels_resolve_first_in_matrix_order(self):
        table = config_by_label()
        for label, options in table.items():
            assert options.label() == label
        # the primed NI label is ambiguous (NONE and CROSS_FAMILY
        # produce it); matrix order says NONE wins
        primed = [o for o in all_configurations()
                  if o.label() == "PRX-NI'"]
        assert len(primed) > 1
        assert table["PRX-NI'"].implication is primed[0].implication


class TestOracleVerdicts:
    def test_clean_program_passes(self):
        assert Oracle(configs=FAST).check(CLEAN, seed=0) is None

    def test_trapping_program_passes(self):
        # trap parity across configurations is a pass, not a failure
        assert Oracle(configs=FAST).check(TRAPPING, seed=0) is None

    def test_frontend_error_classified(self):
        failure = Oracle(configs=FAST).check("program p\nwat\nend program")
        assert failure is not None
        assert failure.kind == "frontend-error"
        assert failure.config == "<baseline>"

    def test_generated_programs_pass(self):
        oracle = Oracle(configs=FAST)
        for seed in range(5):
            failure = oracle.check(generate_program(seed), seed=seed)
            assert failure is None, failure.describe()

    def test_describe_mentions_config_and_seed(self):
        failure = Oracle(configs=FAST).check("program p\nwat\nend program",
                                             seed=42)
        text = failure.describe()
        assert "frontend-error" in text and "42" in text


class TestTrainedLOShard:
    """The LO fuzz shard: beyond the matrix pass (which covers the
    no-profile degradation), any LO config triggers a trained pass that
    self-trains a profile and asserts LO never runs more
    profile-weighted dynamic checks than LLS (kind ``lospre-regression``
    on violation)."""

    def _shard(self):
        table = config_by_label()
        return Oracle(configs=[table["PRX-LO"], table["INX-LO"]])

    def test_shard_labels_resolve(self):
        table = config_by_label()
        assert "PRX-LO" in table and "INX-LO" in table
        assert table["PRX-LO"].scheme is Scheme.LO

    def test_clean_program_passes(self):
        assert self._shard().check(CLEAN, seed=0) is None

    def test_trapping_program_passes(self):
        # the training run traps too, leaving a truncated profile,
        # which loses flow downstream of the trap
        assert self._shard().check(TRAPPING, seed=0) is None

    def test_generated_programs_pass(self):
        oracle = self._shard()
        for seed in range(5):
            failure = oracle.check(generate_program(seed), seed=seed)
            assert failure is None, failure.describe()


CROSS_CALL = """
program p
  input integer :: n = 6
  integer :: i
  real :: a(1:n)
  do i = 1, n
    a(i) = real(i)
    call put(n, i, a)
  end do
  print a(1)
end program

subroutine put(m, j, x)
  integer :: m, j
  real :: x(1:m)
  x(j) = x(j) + 1.0
end subroutine
"""

CROSS_CALL_TRAP = CROSS_CALL.replace("input integer :: n = 6",
                                     "input integer :: n = 6, bad = 9") \
                            .replace("call put(n, i, a)",
                                     "call put(n, bad, a)")


class TestInlineShard:
    """The inline fuzz shard: paired inline-on/off configurations with
    the NI-only ``inline-regression`` invariant (inlining may only
    expose facts under pure elimination, never remove them)."""

    def test_inline_configurations_shape(self):
        configs = inline_configurations()
        assert len(configs) == len(INLINE_SCHEMES) * len(CheckKind)
        for options in configs:
            assert options.inline
            assert options.implication is ImplicationMode.ALL
            assert options.label().endswith("+inl")

    def test_matrix_size_unchanged_by_inline_configs(self):
        # inline configs ride in a separate list: the paper's full
        # matrix keeps its exact Scheme x Kind x Implication size
        assert all(not getattr(o, "inline", False)
                   for o in all_configurations())

    def test_inline_labels_resolve(self):
        table = config_by_label()
        for options in inline_configurations():
            label = options.label()
            assert label in table
            assert table[label].inline
            # and the non-inlined twin resolves too (the pairing the
            # regression invariant depends on)
            assert label.replace("+inl", "") in table

    def test_default_oracle_includes_inline_configs(self):
        oracle = Oracle()
        assert any(getattr(o, "inline", False) for o in oracle.configs)

    def _shard(self):
        table = config_by_label()
        labels = ["PRX-NI", "INX-NI", "PRX-NI+inl", "INX-NI+inl",
                  "PRX-LLS+inl", "INX-LLS+inl"]
        return Oracle(configs=[table[label] for label in labels])

    def test_cross_call_program_passes(self):
        assert self._shard().check(CROSS_CALL, seed=0) is None

    def test_cross_call_trap_passes(self):
        # trap parity inline-on vs inline-off is a pass
        assert self._shard().check(CROSS_CALL_TRAP, seed=0) is None

    def test_generated_programs_pass(self):
        oracle = self._shard()
        for seed in range(5):
            failure = oracle.check(generate_program(seed), seed=seed)
            assert failure is None, failure.describe()

    def test_regression_invariant_fires(self):
        # a fabricated effective-count table where the inlined NI run
        # did MORE work than its twin must be flagged
        oracle = self._shard()
        table = config_by_label()
        failure = oracle._check_inline_pairs(
            {"INX-NI": 10, "INX-NI+inl": 11}, 7, "<source>")
        assert failure is not None
        assert failure.kind == "inline-regression"
        assert failure.config == "INX-NI+inl"

    def test_regression_invariant_ni_only(self):
        # LLS pairs are exempt: hoisting reasons about the (changed)
        # loop nests, so no monotonicity theorem holds
        oracle = self._shard()
        failure = oracle._check_inline_pairs(
            {"INX-LLS": 10, "INX-LLS+inl": 11}, 7, "<source>")
        assert failure is None

    def test_regression_invariant_skips_unpaired_runs(self):
        oracle = self._shard()
        assert oracle._check_inline_pairs(
            {"INX-NI+inl": 11}, 7, "<source>") is None
        assert oracle._check_inline_pairs(
            {"INX-NI": 5, "INX-NI+inl": 5}, 7, "<source>") is None


class TestLimitParity:
    """Both engines run under the same fuel and depth budgets."""

    def _compare(self, compiled_error):
        from repro.fuzz.oracle import _RunResult

        interp = _RunResult([1.0], False, None)
        compiled = _RunResult(None, False, None, error=compiled_error)
        return Oracle(configs=FAST)._compare_engines(
            interp, compiled, 0, "<source>", "PRX-LLS")

    def test_compiled_only_step_limit_is_tolerated(self):
        # destructed SSA burns extra fuel on phi copies, so the
        # back-end may exhaust max_steps where the interpreter finished
        from repro.errors import StepLimitError

        assert self._compare(
            StepLimitError("execution exceeded 100 steps")) is None

    def test_compiled_only_call_depth_is_a_failure(self):
        # call depth is 1:1 between engines; divergence is a real bug
        from repro.errors import CallDepthError

        failure = self._compare(
            CallDepthError("call depth exceeded 200 (runaway recursion?)"))
        assert failure is not None
        assert failure.kind == "limit-parity"

    def test_other_backend_errors_still_report(self):
        from repro.errors import InterpError

        failure = self._compare(InterpError("boom"))
        assert failure is not None
        assert failure.kind == "engine-mismatch"

    def test_oracle_runs_compiled_with_its_own_fuel(self):
        # a loop that finishes for the interpreter inside max_steps but
        # whose destructed form needs more: the oracle must not report
        import inspect

        from repro.fuzz.oracle import _run_compiled

        signature = inspect.signature(_run_compiled)
        assert "max_steps" in signature.parameters
