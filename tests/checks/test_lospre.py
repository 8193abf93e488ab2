"""Profile-priced LO placement (``Scheme.LO``).

After the LLS hoist, LO inserts LCM latest's checks or none, whichever
executes fewer checks at the training profile's edge counts; a tie
keeps latest.  Covered here: latest without a profile or for a
function the profile does not cover, each branch of the priced choice
winning on a real program, a consistent or truncated training run
leaving latest in place, and a hand-built profile that breaks flow
conservation still giving a sound placement on every engine.
"""

import pytest

from repro.benchsuite.registry import get_program
from repro.checks.config import CheckKind, OptimizerOptions, Scheme
from repro.fuzz.generator import generate_program
from repro.ir.printer import format_module
from repro.pipeline.driver import compile_source
from repro.pipeline.profile import EdgeProfile, source_digest, train_profile

LOOP = """
program p
  input integer :: n = 5
  integer :: i
  real :: a(10)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(n)
end program
"""

# a(t)'s check is anticipatable through both arms of the branch up to
# t's definition, so its postponement region is the whole diamond:
# earliest on the two split edges, latest on the two join edges
DIAMOND = """
program p
  input integer :: n = 5
  integer :: t
  real :: a(10)
  t = 2*n
  if (n > 2) then
    print 1
  else
    print 2
  end if
  a(t) = 3.0
end program
"""


def lying_diamond_profile():
    """A profile no real run could produce: the join edges claim 50
    traversals each while the split edges claim one, so flow
    conservation is violated."""
    return EdgeProfile(source_digest(DIAMOND), {"p": {
        ("", "entry0"): 1,
        ("entry0", "if_then2"): 1,
        ("entry0", "if_else3"): 1,
        ("if_then2", "if_exit1"): 50,
        ("if_else3", "if_exit1"): 50,
    }})


class TestPlacementPolicy:
    def test_without_profile_degrades_to_latest(self):
        bare = compile_source(LOOP, OptimizerOptions(scheme=Scheme.LO))
        assert bare.total_stats().lospre_cuts == 0
        lls = compile_source(LOOP, OptimizerOptions(scheme=Scheme.LLS))
        assert bare.run({"n": 5}).counters.effective_checks() \
            == lls.run({"n": 5}).counters.effective_checks()

    def test_consistent_profile_never_speculates(self):
        # a complete training run satisfies flow conservation, and
        # here the LLS residual is no cheaper, so LO keeps latest
        profile = train_profile(LOOP, OptimizerOptions(scheme=Scheme.LO),
                                {"n": 5})
        trained = compile_source(LOOP, OptimizerOptions(
            Scheme.LO, profile=profile))
        assert trained.total_stats().lospre_cuts == 0
        bare = compile_source(LOOP, OptimizerOptions(scheme=Scheme.LO))
        assert trained.run({"n": 5}).counters.effective_checks() \
            == bare.run({"n": 5}).counters.effective_checks()

    def test_inconsistent_profile_stays_sound(self):
        # hand-built flow-conservation violation: the join edges claim
        # 100 combined traversals, the split edges one each.  LO still
        # chooses only between latest and no insertion, both sound
        trained = compile_source(DIAMOND, OptimizerOptions(
            Scheme.LO, profile=lying_diamond_profile()))
        assert trained.total_stats().lospre_cuts == 0
        lls = compile_source(DIAMOND, OptimizerOptions(scheme=Scheme.LLS))
        run_lo = trained.run({"n": 5})
        run_lls = lls.run({"n": 5})
        assert run_lo.output == run_lls.output
        assert run_lo.counters.effective_checks() \
            <= run_lls.counters.effective_checks()

    def test_truncated_training_never_speculates(self):
        # a trap during training leaves only the entry pseudo-edge:
        # every downstream block observed zero executions.  Real flow
        # only leaks downstream, so no placement prices below latest
        # and the tie keeps it
        profile = train_profile(LOOP, OptimizerOptions(scheme=Scheme.LO),
                                {"n": 60})
        assert profile.functions == {"p": {("", "entry0"): 1}}
        trained = compile_source(LOOP, OptimizerOptions(
            Scheme.LO, profile=profile))
        assert trained.total_stats().lospre_cuts == 0
        bare = compile_source(LOOP, OptimizerOptions(scheme=Scheme.LO))
        assert trained.run({"n": 5}).counters.effective_checks() \
            == bare.run({"n": 5}).counters.effective_checks()

    @pytest.mark.parametrize("kind", [CheckKind.PRX, CheckKind.INX])
    def test_both_kinds_compile_and_agree_on_output(self, kind):
        options = OptimizerOptions(scheme=Scheme.LO, kind=kind)
        profile = train_profile(LOOP, options, {"n": 5})
        program = compile_source(LOOP, OptimizerOptions(
            Scheme.LO, kind, options.implication, profile=profile))
        lls = compile_source(LOOP, OptimizerOptions(scheme=Scheme.LLS,
                                                    kind=kind))
        assert program.run({"n": 5}).output == lls.run({"n": 5}).output

    def test_engine_parity_under_an_inconsistent_profile(self):
        # the placement must count identically on all engines
        program = compile_source(DIAMOND, OptimizerOptions(
            Scheme.LO, profile=lying_diamond_profile()))
        counts = {program.run({"n": 5}).counters.effective_checks()}
        for engine in ("compiled", "specialized"):
            counts.add(program.run_compiled(
                {"n": 5}, engine=engine).counters.effective_checks())
        assert len(counts) == 1


def _effective(source, options, inputs):
    return compile_source(source, options).run(inputs) \
        .counters.effective_checks()


class TestPricedChoice:
    """Each branch of the choice wins on a real program and a real
    training run: latest where it executes fewer checks, the LLS
    residual (no insertion) where that does."""

    def _trained(self, source, inputs):
        profile = train_profile(source, OptimizerOptions(scheme=Scheme.LO),
                                inputs)
        return OptimizerOptions(Scheme.LO, profile=profile)

    def test_latest_when_it_is_cheaper(self):
        spec77 = get_program("spec77")
        source, inputs = spec77.source, spec77.test_inputs
        trained = _effective(source, self._trained(source, inputs), inputs)
        untrained = _effective(source, OptimizerOptions(scheme=Scheme.LO),
                               inputs)
        lls = _effective(source, OptimizerOptions(scheme=Scheme.LLS),
                         inputs)
        assert (trained, untrained, lls) == (72, 72, 92)

    def test_no_insertion_when_it_is_cheaper(self):
        source = generate_program(107)
        trained = _effective(source, self._trained(source, {}), {})
        untrained = _effective(source, OptimizerOptions(scheme=Scheme.LO),
                               {})
        lls = _effective(source, OptimizerOptions(scheme=Scheme.LLS), {})
        assert (trained, untrained, lls) == (110, 111, 110)

    def test_unprofiled_function_gets_latest(self):
        # the profile covers none of the program's functions, so each
        # gets latest, as with no profile at all
        source = generate_program(107)
        uncovered = OptimizerOptions(Scheme.LO, profile=EdgeProfile(
            source_digest(source), {}))

        def ir(options):
            return format_module(compile_source(source, options).module)

        assert ir(uncovered) == ir(OptimizerOptions(scheme=Scheme.LO))
        assert ir(uncovered) != ir(self._trained(source, {}))


class TestAvailabilitySolves:
    def test_equal_edge_gens_share_one_solution(self, monkeypatch):
        """LO solves availability for latest's placement, then prices
        no insertion (the same edge gens) and latest's map: each
        distinct system is solved once per check analysis."""
        import repro.checks.optimizer as optimizer
        from repro.checks.dataflow import CheckAnalysis

        solve = CheckAnalysis.availability
        lospre = optimizer.lospre_insertions
        functions = []
        solutions = []

        def counted_lospre(analysis, *args):
            functions.append(analysis.function.name)
            # solution objects by identity, kept alive while counting
            returned = {}

            def availability(edge_gen=None):
                result = solve(analysis, edge_gen)
                returned[id(result[0])] = result
                return result

            analysis.availability = availability
            try:
                return lospre(analysis, *args)
            finally:
                del analysis.availability
                solutions.extend(returned.values())

        monkeypatch.setattr(optimizer, "lospre_insertions", counted_lospre)
        for name in ("spec77", "trfd", "arc2d"):
            program = get_program(name)
            profile = train_profile(program.source,
                                    OptimizerOptions(scheme=Scheme.LO),
                                    program.test_inputs)
            compile_source(program.source,
                           OptimizerOptions(Scheme.LO, profile=profile))
        assert len(functions) == 9
        assert len(solutions) == 10
