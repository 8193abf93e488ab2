"""Edge-profile artifacts: determinism, recording engine, validation.

The profile is the ``Scheme.LO`` training artifact, so its guarantees
are load-bearing: byte-identical serialization (cacheable, diffable),
one recording engine (the interpreter; the back-ends refuse), and loud
failures on any torn, stale, or foreign artifact (a silently-wrong
profile would mean silently-wrong check placement).
"""

import json

import pytest

from repro.checks.config import (CheckKind, ImplicationMode, OptimizerOptions,
                                 Scheme)
from repro.errors import ProfileError, RangeTrap
from repro.interp.machine import Machine
from repro.pipeline.driver import compile_source
from repro.pipeline.profile import (EdgeProfile, profile_from_counters,
                                    source_digest, train_profile,
                                    with_profile)

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

    def test_trap_truncated_training_still_yields_artifact(self):
        profile = train_profile(TRAPPING,
                                OptimizerOptions(scheme=Scheme.LO),
                                {"n": 60})
        # the trap fires before the loop body is reached (the LLS
        # preheader check), so only the entry pseudo-edge is recorded
        assert profile.functions == {"p": {("", "entry0"): 1}}
        EdgeProfile.loads(profile.dumps())  # still a valid artifact


class TestEngineParity:
    """Edge profiles are recorded by the interpreter only: training
    always interprets, so no back-end engine carries edge counting,
    and asking one for edges is an error rather than an empty
    profile."""

    def _edges(self, program, inputs):
        try:
            result = program.run(inputs, collect_edges=True)
            return dict(result.counters.edges)
        except RangeTrap as trap:
            # accounting survives the trap: the trap carries the
            # machine state at the instant it fired
            return dict(trap.runtime.counters.edges)

    def test_zero_trip_records_exit_not_body(self):
        program = compile_source(LOOP,
                                 OptimizerOptions(scheme=Scheme.LLS))
        edges = self._edges(program, {"n": 0})
        bodies = [e for e in edges if "do_body" in e[2]]
        assert not bodies
        exits = [e for e in edges if "do_exit" in e[2]]
        assert exits and all(edges[e] == 1 for e in exits)

    @pytest.mark.parametrize("engine", ["compiled", "specialized"])
    def test_backend_engines_refuse_edge_collection(self, engine):
        program = compile_source(LOOP,
                                 OptimizerOptions(scheme=Scheme.LLS))
        with pytest.raises(ValueError, match="interpreter only"):
            program.execute({"n": 5}, engine, collect_edges=True)

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


class TestWithProfile:
    def test_unchanged_when_there_is_nothing_to_attach(self):
        lls = OptimizerOptions(scheme=Scheme.LLS)
        lo = OptimizerOptions(scheme=Scheme.LO)
        attached = OptimizerOptions(scheme=Scheme.LO, profile=_trained())
        assert with_profile(lls, LOOP, {"n": 5}, "auto") is lls
        assert with_profile(lo, LOOP, {"n": 5}, "off") is lo
        assert with_profile(attached, LOOP, {"n": 5}, "auto") is attached

    def test_auto_path_and_document_attach_the_same_profile(self, tmp_path):
        profile = _trained()
        path = tmp_path / "edges.json"
        profile.write(str(path))
        options = OptimizerOptions(scheme=Scheme.LO)
        for spec in ("auto", str(path), json.loads(profile.dumps())):
            copy = with_profile(options, LOOP, {"n": 5}, spec)
            assert copy is not options and options.profile is None
            assert copy.profile.fingerprint == profile.fingerprint

    def test_copy_keeps_every_axis(self):
        options = OptimizerOptions(Scheme.LO, CheckKind.INX,
                                   ImplicationMode.CROSS_FAMILY, inline=True)
        copy = with_profile(options, LOOP, {"n": 5})
        assert copy.label() == options.label() == "INX-LO'+inl"
        assert (copy.profile.kind, copy.profile.implication) == (
            "INX", "cross-family")
