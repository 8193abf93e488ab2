"""Tests for check availability and anticipatability (section 3.2)."""

import sys

from repro.checks import (CanonicalCheck, CheckAnalysis,
                          CheckImplicationGraph, ids_of,
                          universe_from_function)
from repro.checks.dataflow import EMPTY
from repro.ir import Check
from repro.symbolic import LinearExpr

from ..conftest import lower_ssa


def analyze(source):
    module = lower_ssa(source)
    main = module.main
    universe = universe_from_function(main)
    cig = CheckImplicationGraph(universe)
    return CheckAnalysis(main, universe, cig), main


def ids(facts):
    """The check ids of a fact mask, as a set."""
    return set(ids_of(facts))


STRAIGHT = """
program p
  input integer :: n = 3
  real :: a(10)
  a(2 * n) = 0.0
  a(2 * n - 1) = 1.0
end program
"""


class TestLocalSets:
    def test_comp_contains_weaker_closure(self):
        analysis, main = analyze(STRAIGHT)
        entry = main.entry
        comp = analysis.comp[entry]
        # the first upper check (2n <= 10) generates the weaker (2n <= 11)
        strong = analysis.universe.id_of(
            CanonicalCheck.of(_checks(main)[1]))
        weak = analysis.universe.id_of(
            CanonicalCheck.of(_checks(main)[3]))
        assert strong in ids(comp)
        assert weak in ids(comp)

    def test_antloc_is_family_restricted(self):
        analysis, main = analyze(STRAIGHT)
        antloc = analysis.antloc[main.entry]
        # anticipatability closure stays within families: everything here
        # is same-family, so all four checks appear
        assert len(ids(antloc)) == len(analysis.universe)

    def test_def_kills_family(self):
        analysis, main = analyze("""
program p
  integer :: k
  real :: a(10)
  k = 2
  a(k) = 0.0
  k = 11
  a(k) = 1.0
end program
""")
        entry = main.entry
        # checks on the first k version are killed by the second def in
        # non-SSA form; in SSA the versions are distinct families
        assert len(analysis.universe.families) >= 3

    def test_transparency(self):
        analysis, main = analyze(STRAIGHT)
        # nothing in the entry block redefines n, so every check family
        # is transparent
        assert analysis.transp[main.entry] == analysis.all_ids


class TestAvailability:
    def test_forward_propagation(self, loop_program):
        module = lower_ssa(loop_program)
        main = module.main
        universe = universe_from_function(main)
        cig = CheckImplicationGraph(universe)
        analysis = CheckAnalysis(main, universe, cig)
        avin, avout = analysis.availability()
        body = next(b for b in main.blocks if b.name.startswith("do_body"))
        header = next(b for b in main.blocks
                      if b.name.startswith("do_head"))
        # the body's checks flow around the back edge but are killed by
        # the loop phi defining i
        assert avin[header] != analysis.all_ids

    def test_entry_starts_empty(self):
        analysis, main = analyze(STRAIGHT)
        avin, _ = analysis.availability()
        assert ids(avin[main.entry]) == set()

    def test_edge_gen_facts_enter_at_edge(self, loop_program):
        module = lower_ssa(loop_program)
        main = module.main
        universe = universe_from_function(main)
        canonical = universe.check_of(0)
        cig = CheckImplicationGraph(universe)
        analysis = CheckAnalysis(main, universe, cig)
        header = next(b for b in main.blocks
                      if b.name.startswith("do_head"))
        body = next(b for b in main.blocks if b.name.startswith("do_body"))
        exit_block = next(b for b in main.blocks
                          if b.name.startswith("do_exit"))
        avin_plain, _ = analysis.availability()
        avin_edge, _ = analysis.availability(
            {(header, body): [canonical]})
        assert 0 in ids(avin_edge[body])
        # but the fact does not leak to the zero-trip exit path
        assert 0 not in ids(avin_edge[exit_block]) or \
            0 in ids(avin_plain[exit_block])


class TestAnticipatability:
    def test_backward_propagation(self):
        analysis, main = analyze(STRAIGHT)
        antin, _ = analysis.anticipatability()
        assert antin[main.entry] == analysis.all_ids

    def test_exit_is_empty(self):
        analysis, main = analyze(STRAIGHT)
        _, antout = analysis.anticipatability()
        exits = [b for b in main.blocks if not b.successors()]
        for block in exits:
            assert ids(antout[block]) == set()

    def test_branch_needs_both_arms(self):
        analysis, main = analyze("""
program p
  input integer :: n = 3, c = 1
  real :: a(10)
  if (c > 0) then
    a(n) = 1.0
  else
    a(n + 4) = 2.0
  end if
end program
""")
        antin, _ = analysis.anticipatability()
        # family {n}: (n <= 10) in one arm, (n <= 6) in the other;
        # at the entry the weaker (n <= 10) is anticipatable (both arms
        # check something at least as strong), the stronger is not
        weak_upper = None
        strong_upper = None
        for check in _checks(main):
            canonical = CanonicalCheck.of(check)
            if check.kind == "upper" and canonical.bound == 10:
                weak_upper = analysis.universe.id_of(canonical)
            if check.kind == "upper" and canonical.bound == 6:
                strong_upper = analysis.universe.id_of(canonical)
        assert weak_upper in ids(antin[main.entry])
        assert strong_upper not in ids(antin[main.entry])


class TestStatementWalks:
    def test_facts_before_checks_order(self):
        analysis, main = analyze(STRAIGHT)
        walk = analysis.facts_before_checks(main.entry, EMPTY)
        assert [isinstance(i, Check) for _, i, _ in walk] == [True] * 4
        # the second access's upper check sees the first one's facts
        last_facts = walk[-1][2]
        assert last_facts

    def test_ant_before_positions(self):
        analysis, main = analyze(STRAIGHT)
        walk = analysis.ant_before_positions(main.entry, EMPTY)
        # at the first (weakest) lower check, the stronger later lower
        # check is anticipatable
        first_check = walk[0]
        strong_lower = analysis.universe.id_of(
            CanonicalCheck.of(_checks(main)[2]))
        assert strong_lower in ids(first_check[2])


class TestCheckIds:
    def test_only_the_universe_canonicalizes(self, loop_program,
                                             monkeypatch):
        module = lower_ssa(loop_program)
        callers = []
        original = CanonicalCheck.of

        def recording(check):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(check)

        monkeypatch.setattr(CanonicalCheck, "of", staticmethod(recording))
        for function in module:
            universe = universe_from_function(function)
            analysis = CheckAnalysis(function, universe,
                                     CheckImplicationGraph(universe))
            analysis.availability()
            analysis.anticipatability()
        assert callers
        assert set(callers) == {"universe_from_function"}

    def test_id_of_canonicalizes_a_check_added_since(self):
        analysis, main = analyze(STRAIGHT)
        first = _checks(main)[0]
        assert analysis.id_of(first) == analysis.universe.sites[first]
        copy = Check(first.linexpr, first.bound, dict(first.operands),
                     first.kind, first.array)
        assert copy not in analysis.universe.sites
        assert analysis.id_of(copy) == analysis.id_of(first)
        unseen = Check(LinearExpr({}, 99), 0, {})
        assert analysis.id_of(unseen) is None


def _checks(function):
    return [inst for inst in function.instructions()
            if isinstance(inst, Check)]
