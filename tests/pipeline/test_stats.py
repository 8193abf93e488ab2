"""Tests for the measurement helpers behind Tables 1-3."""

from repro.checks import OptimizerOptions, Scheme
from repro.pipeline.stats import (measure_baseline, measure_scheme,
                                  verify_same_output)


SOURCE = """
program meas
  input integer :: n = 10
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""


class TestBaseline:
    def test_fields_populated(self):
        row = measure_baseline("meas", SOURCE, {"n": 10})
        assert row.lines > 5
        assert row.subroutines == 0
        assert row.loops == 1
        assert row.static_checks > 0
        # 2 checks x 10 iterations + 2 compile-time checks for a(1)
        assert row.dynamic_checks == 22
        assert row.dynamic_instructions > 0

    def test_ratios(self):
        row = measure_baseline("meas", SOURCE, {"n": 10})
        assert 0 < row.dynamic_ratio < 200
        assert 0 < row.static_ratio < 200

    def test_inputs_scale_dynamic_counts(self):
        small = measure_baseline("meas", SOURCE, {"n": 5})
        large = measure_baseline("meas", SOURCE, {"n": 20})
        assert large.dynamic_checks > small.dynamic_checks
        assert large.static_checks == small.static_checks


class TestSchemeMeasurement:
    def test_percent_eliminated(self):
        baseline = measure_baseline("meas", SOURCE, {"n": 10})
        cell = measure_scheme("meas", SOURCE,
                              OptimizerOptions(scheme=Scheme.LLS),
                              baseline.dynamic_checks, {"n": 10})
        assert cell.percent_eliminated > 80.0
        assert cell.dynamic_checks < baseline.dynamic_checks

    def test_times_recorded(self):
        baseline = measure_baseline("meas", SOURCE, {"n": 10})
        cell = measure_scheme("meas", SOURCE, OptimizerOptions(),
                              baseline.dynamic_checks, {"n": 10})
        assert cell.optimize_seconds > 0
        assert cell.compile_seconds >= cell.optimize_seconds

    def test_label(self):
        baseline = measure_baseline("meas", SOURCE, {"n": 10})
        cell = measure_scheme("meas", SOURCE,
                              OptimizerOptions(scheme=Scheme.NI),
                              baseline.dynamic_checks, {"n": 10})
        assert cell.label == "PRX-NI"

    def test_zero_baseline_guard(self):
        from repro.pipeline.stats import SchemeMeasurement
        cell = SchemeMeasurement("x", "PRX-NI")
        assert cell.percent_eliminated == 0.0


class TestOutputVerification:
    def test_same_output(self):
        for scheme in (Scheme.NI, Scheme.LLS, Scheme.ALL):
            assert verify_same_output(SOURCE,
                                      OptimizerOptions(scheme=scheme),
                                      {"n": 10})


class TestProfileTraining:
    def _passes(self, options, profile_mode="auto"):
        cell = measure_scheme("meas", SOURCE, options, 22, {"n": 10},
                              profile_mode=profile_mode)
        return [event.name for event in cell.trace]

    def test_lo_trains_and_records_it(self):
        assert self._passes(OptimizerOptions(scheme=Scheme.LO))[0] == \
            "train-profile"

    def test_no_event_without_a_training_run(self):
        from repro.pipeline.profile import train_profile

        lo = OptimizerOptions(scheme=Scheme.LO)
        attached = OptimizerOptions(
            scheme=Scheme.LO, profile=train_profile(SOURCE, lo, {"n": 10}))
        for options, mode in ((lo, "off"), (attached, "auto"),
                              (OptimizerOptions(), "auto")):
            assert "train-profile" not in self._passes(options, mode)
