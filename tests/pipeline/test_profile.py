"""Edge-profile artifacts: determinism, engine parity, validation.

The profile is the ``Scheme.LO`` training artifact, so its guarantees
are load-bearing: byte-identical serialization (cacheable, diffable),
identical edge counts from all three execution engines (training under
any engine yields the same placement), and loud failures on any torn,
stale, or foreign artifact (a silently-wrong profile would mean
silently-wrong check placement).
"""

import json

import pytest

from repro.checks.config import OptimizerOptions, Scheme
from repro.errors import ProfileError, RangeTrap
from repro.interp.machine import Machine
from repro.pipeline.driver import compile_source
from repro.pipeline.profile import (EdgeProfile, profile_from_counters,
                                    source_digest, train_profile)

LOOP = """
program p
  input integer :: n = 5
  integer :: i
  real :: a(10)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""

#: Same shape but the final access traps once ``n`` exceeds the bound.
TRAPPING = LOOP.replace("print a(1)", "print a(n)")


def _trained(inputs=None):
    return train_profile(LOOP, OptimizerOptions(scheme=Scheme.LO),
                         inputs or {"n": 5})


class TestDeterminism:
    def test_retraining_is_byte_identical(self):
        first, second = _trained(), _trained()
        assert first.dumps() == second.dumps()
        assert first.fingerprint == second.fingerprint

    def test_write_publishes_exactly_dumps(self, tmp_path):
        profile = _trained()
        path = tmp_path / "edges.json"
        profile.write(str(path))
        assert path.read_text() == profile.dumps()
        # no temp files left behind by the atomic-rename protocol
        assert [p.name for p in tmp_path.iterdir()] == ["edges.json"]

    def test_failed_write_raises_and_leaves_no_temp(self, tmp_path):
        # unlike a cache entry, a user-named profile must not fail
        # silently; a directory squatting on the path fails the rename
        (tmp_path / "edges.json").mkdir()
        with pytest.raises(OSError):
            _trained().write(str(tmp_path / "edges.json"))
        assert [p.name for p in tmp_path.iterdir()] == ["edges.json"]

    def test_roundtrip_preserves_weights(self):
        profile = _trained()
        back = EdgeProfile.loads(profile.dumps())
        assert back.fingerprint == profile.fingerprint
        assert back.functions == profile.functions
        assert back.total_weight() == profile.total_weight()

    def test_trap_truncated_training_still_yields_artifact(self):
        profile = train_profile(TRAPPING,
                                OptimizerOptions(scheme=Scheme.LO),
                                {"n": 60})
        # the trap fires before the loop body is reached (the LLS
        # preheader check), so only the entry pseudo-edge is recorded
        assert profile.total_weight() == 1
        EdgeProfile.loads(profile.dumps())  # still a valid artifact


class TestEngineParity:
    """All three engines must report the same edge counts — otherwise
    training under one engine and executing under another would give
    different placements."""

    def _edges(self, program, engine, inputs):
        try:
            if engine == "interp":
                result = program.run(inputs, collect_edges=True)
            else:
                result = program.run_compiled(inputs, engine=engine,
                                              collect_edges=True)
            return dict(result.counters.edges)
        except RangeTrap as trap:
            # accounting survives the trap on every engine: the trap
            # carries the runtime state at the instant it fired
            return dict(trap.runtime.counters.edges)

    @pytest.mark.parametrize("source,inputs", [
        (LOOP, {"n": 5}),       # the common case
        (LOOP, {"n": 0}),       # zero-trip loop: exit edge only
        (TRAPPING, {"n": 60}),  # trap mid-run: partial counts
    ], ids=["normal", "zero-trip", "trapping"])
    def test_three_engines_agree(self, source, inputs):
        program = compile_source(source,
                                 OptimizerOptions(scheme=Scheme.LLS))
        interp = self._edges(program, "interp", inputs)
        compiled = self._edges(program, "compiled", inputs)
        specialized = self._edges(program, "specialized", inputs)
        assert interp == compiled == specialized
        assert interp  # at least the entry pseudo-edge

    def test_zero_trip_records_exit_not_body(self):
        program = compile_source(LOOP,
                                 OptimizerOptions(scheme=Scheme.LLS))
        edges = self._edges(program, "interp", {"n": 0})
        bodies = [e for e in edges if "do_body" in e[2]]
        assert not bodies
        exits = [e for e in edges if "do_exit" in e[2]]
        assert exits and all(edges[e] == 1 for e in exits)

    def test_artifact_identical_across_engines(self):
        texts = []
        for engine in ("interp", "compiled", "specialized"):
            program = compile_source(LOOP,
                                     OptimizerOptions(scheme=Scheme.LLS))
            if engine == "interp":
                result = program.run({"n": 5}, collect_edges=True)
            else:
                result = program.run_compiled({"n": 5}, engine=engine,
                                              collect_edges=True)
            texts.append(profile_from_counters(
                LOOP, result.counters).dumps())
        assert texts[0] == texts[1] == texts[2]

    def test_default_run_collects_nothing(self):
        # collect_edges is opt-in; the default path must not pay for it
        program = compile_source(LOOP,
                                 OptimizerOptions(scheme=Scheme.LLS))
        assert program.run({"n": 5}).counters.edges is None


class TestValidation:
    def test_not_json_is_profile_error(self):
        with pytest.raises(ProfileError, match="not valid JSON"):
            EdgeProfile.loads("{torn", where="x.json")

    def test_wrong_schema_is_profile_error(self):
        with pytest.raises(ProfileError, match="schema"):
            EdgeProfile.loads('{"schema": "something.else"}')

    def test_tampered_artifact_is_profile_error(self):
        doc = json.loads(_trained().dumps())
        fn = next(iter(doc["functions"]))
        key = next(iter(doc["functions"][fn]))
        doc["functions"][fn][key] += 1  # edit a count, keep fingerprint
        with pytest.raises(ProfileError, match="fingerprint mismatch"):
            EdgeProfile.loads(json.dumps(doc))

    def test_negative_count_is_profile_error(self):
        doc = json.loads(_trained().dumps())
        fn = next(iter(doc["functions"]))
        key = next(iter(doc["functions"][fn]))
        doc["functions"][fn][key] = -1
        with pytest.raises(ProfileError, match="malformed edge"):
            EdgeProfile.loads(json.dumps(doc))

    def test_missing_file_is_profile_error(self):
        with pytest.raises(ProfileError, match="cannot read"):
            EdgeProfile.load("/nonexistent/edges.json")

    def test_foreign_source_is_rejected(self):
        profile = _trained()
        with pytest.raises(ProfileError, match="different program"):
            profile.validate_for(TRAPPING, profile.kind,
                                 profile.implication)

    def test_axis_mismatch_is_rejected(self):
        profile = _trained()  # trained under PRX/all
        with pytest.raises(ProfileError, match="trained under"):
            profile.validate_for(LOOP, "INX", profile.implication)

    def test_compile_rejects_stale_profile(self):
        profile = _trained()
        with pytest.raises(ProfileError):
            compile_source(TRAPPING, OptimizerOptions(
                Scheme.LO, profile=profile))

    def test_counters_without_edges_is_profile_error(self):
        program = compile_source(LOOP,
                                 OptimizerOptions(scheme=Scheme.LLS))
        machine = Machine(program.module, {"n": 5})
        machine.run()
        with pytest.raises(ProfileError, match="did not collect"):
            profile_from_counters(LOOP, machine.counters)
