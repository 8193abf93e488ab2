"""Tests for per-pass pipeline tracing."""

import time

from repro.pipeline import PipelineTrace, compile_source
from repro.pipeline.trace import PassEvent


class TestPipelineTrace:
    def test_record_appends_events(self):
        trace = PipelineTrace()
        trace.record("parse", 0.5)
        trace.record("lower", 0.25, size_after=10)
        assert len(trace) == 2
        assert [e.name for e in trace] == ["parse", "lower"]
        assert trace.total_seconds == 0.75

    def test_timed_measures_wall_time(self):
        trace = PipelineTrace()
        with trace.timed("sleepy") as event:
            time.sleep(0.01)
            event.size_after = 7
        assert trace.events[0].seconds >= 0.01
        assert trace.events[0].size_after == 7

    def test_run_count_ignores_cached(self):
        trace = PipelineTrace()
        trace.record("parse", 0.1)
        trace.record("parse", 0.0, cached=True)
        assert trace.run_count("parse") == 1
        assert trace.run_count("parse", include_cached=True) == 2

    def test_seconds_filters_by_name(self):
        trace = PipelineTrace()
        trace.record("a", 1.0)
        trace.record("b", 2.0)
        assert trace.seconds("a") == 1.0
        assert trace.seconds() == 3.0

    def test_extend_shares_events(self):
        one, two = PipelineTrace(), PipelineTrace()
        two.record("ssa", 0.1)
        one.extend(two)
        assert [e.name for e in one] == ["ssa"]

    def test_as_dict_shape(self):
        trace = PipelineTrace()
        trace.record("parse", 0.1, counters={"tokens": 5})
        data = trace.as_dict()
        assert data["total_seconds"] == 0.1
        assert data["events"][0]["pass"] == "parse"
        assert data["events"][0]["counters"] == {"tokens": 5}
        assert "cached" not in data["events"][0]

    def test_event_size_delta(self):
        event = PassEvent("x", 0.0, size_before=10, size_after=4)
        assert event.size_delta == -6

    def test_frontend_was_cached(self):
        trace = PipelineTrace()
        trace.record("frontend", 0.0, cached=True)
        assert trace.frontend_was_cached()
        assert not PipelineTrace().frontend_was_cached()


class TestCompileSourceTrace:
    def test_default_pipeline_passes(self, loop_program):
        program = compile_source(loop_program)
        names = [e.name for e in program.trace]
        assert names == ["parse", "lower", "ssa", "check-optimize"]
        assert all(e.seconds >= 0.0 for e in program.trace)

    def test_optimize_event_counters(self, loop_program):
        program = compile_source(loop_program)
        event = program.trace.events[-1]
        assert event.counters["checks_before"] > event.counters["checks_after"]

    def test_rotate_appears(self, loop_program):
        program = compile_source(loop_program, rotate_loops=True)
        names = [e.name for e in program.trace]
        assert names == ["parse", "lower", "rotate", "ssa",
                         "check-optimize"]

    def test_unoptimized_stops_at_frontend(self, loop_program):
        program = compile_source(loop_program, optimize=False)
        names = [e.name for e in program.trace]
        assert "check-optimize" not in names
        assert "parse" in names

    def test_ssa_size_growth_recorded(self, loop_program):
        program = compile_source(loop_program)
        ssa_event = next(e for e in program.trace if e.name == "ssa")
        assert ssa_event.size_after >= ssa_event.size_before > 0

    def test_caller_trace_is_used(self, loop_program):
        trace = PipelineTrace()
        program = compile_source(loop_program, trace=trace)
        assert program.trace is trace
        assert trace.run_count("parse") == 1
