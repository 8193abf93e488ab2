"""Tests for families and the Check Implication Graph, including the
paper's Figures 3 and 4."""

import random

from repro.checks import (CanonicalCheck, CheckImplicationGraph,
                          CheckUniverse, ImplicationMode, ImplicationStore,
                          ids_of)
from repro.symbolic import LinearExpr


def c(terms, bound):
    return CanonicalCheck(LinearExpr(terms, 0), bound)


def mask(*check_ids):
    """The fact mask of some check ids."""
    return sum(1 << check_id for check_id in set(check_ids))


class TestUniverse:
    def test_ids_are_dense(self):
        universe = CheckUniverse()
        ids = [universe.add(c({"i": 1}, b)) for b in (5, 7, 3)]
        assert ids == [0, 1, 2]

    def test_add_is_idempotent(self):
        universe = CheckUniverse()
        first = universe.add(c({"i": 1}, 5))
        second = universe.add(c({"i": 1}, 5))
        assert first == second
        assert len(universe) == 1

    def test_families_group_by_expression(self):
        universe = CheckUniverse()
        a = universe.add(c({"i": 1}, 5))
        b = universe.add(c({"i": 1}, 9))
        other = universe.add(c({"j": 1}, 5))
        assert universe.family_of[a] == universe.family_of[b]
        assert universe.family_of[a] != universe.family_of[other]

    def test_family_members_sorted_strongest_first(self):
        universe = CheckUniverse()
        weak = universe.add(c({"i": 1}, 9))
        strong = universe.add(c({"i": 1}, 2))
        family = universe.family_of[weak]
        assert universe.family_members(family) == [strong, weak]

    def test_family_symbols(self):
        universe = CheckUniverse()
        check_id = universe.add(c({"i": 1, "n": -2}, 0))
        family = universe.family_of[check_id]
        assert universe.family_symbols(family) == ("i", "n")


class TestFigure3:
    """Figure 3: families F1 = {C3, C1} (lower checks), F2 = {C2, C4}."""

    def test_within_family_strength(self):
        universe = CheckUniverse()
        c1 = universe.add(c({"n": -2}, -5))
        c2 = universe.add(c({"n": 2}, 10))
        c3 = universe.add(c({"n": -2}, -6))
        c4 = universe.add(c({"n": 2}, 11))
        cig = CheckImplicationGraph(universe)
        assert cig.as_strong(c3, c1)       # C3 => C1
        assert cig.as_strong(c2, c4)       # C2 => C4
        assert not cig.as_strong(c1, c3)
        assert not cig.as_strong(c2, c3)   # different families, no edge


class TestFigure4:
    """Figure 4: edge F3 -> F4 with weight 4 from (n<=6) => (m<=10)."""

    def setup_method(self):
        self.universe = CheckUniverse()
        self.n6 = self.universe.add(c({"n": 1}, 6))
        self.n1 = self.universe.add(c({"n": 1}, 1))
        self.m10 = self.universe.add(c({"m": 1}, 10))
        self.m7 = self.universe.add(c({"m": 1}, 7))
        self.m3 = self.universe.add(c({"m": 1}, 3))
        store = ImplicationStore()
        store.add(c({"n": 1}, 6), c({"m": 1}, 10))  # weight 4
        self.cig = CheckImplicationGraph(self.universe, store)

    def test_edge_weight_inference(self):
        # (n <= 1) is as strong as (m <= 7): 1 + 4 <= 7
        assert self.cig.as_strong(self.n1, self.m7)

    def test_weight_limit(self):
        # but NOT as strong as (m <= 3): 1 + 4 > 3
        assert not self.cig.as_strong(self.n1, self.m3)

    def test_original_edge(self):
        assert self.cig.as_strong(self.n6, self.m10)

    def test_no_reverse_implication(self):
        assert not self.cig.as_strong(self.m7, self.n1)


class TestParallelEdges:
    def test_min_weight_kept(self):
        store = ImplicationStore()
        store.add(c({"n": 1}, 0), c({"m": 1}, 8))   # weight 8
        store.add(c({"n": 1}, 0), c({"m": 1}, 3))   # weight 3 (tighter)
        assert store.edges[(LinearExpr({"n": 1}, 0),
                            LinearExpr({"m": 1}, 0))] == 3

    def test_transitive_paths(self):
        universe = CheckUniverse()
        a = universe.add(c({"a": 1}, 0))
        b = universe.add(c({"b": 1}, 5))
        target = universe.add(c({"z": 1}, 10))
        store = ImplicationStore()
        store.add_edge(LinearExpr({"a": 1}, 0), LinearExpr({"b": 1}, 0), 2)
        store.add_edge(LinearExpr({"b": 1}, 0), LinearExpr({"z": 1}, 0), 3)
        cig = CheckImplicationGraph(universe, store)
        # 0 + 2 + 3 = 5 <= 10
        assert cig.as_strong(a, target)


class TestModes:
    def setup_method(self):
        self.universe = CheckUniverse()
        self.strong = self.universe.add(c({"i": 1}, 5))
        self.weak = self.universe.add(c({"i": 1}, 9))
        self.other = self.universe.add(c({"n": 1}, 5))
        store = ImplicationStore()
        store.add(c({"n": 1}, 5), c({"i": 1}, 9))
        self.store = store

    def test_mode_all(self):
        cig = CheckImplicationGraph(self.universe, self.store,
                                    ImplicationMode.ALL)
        assert cig.as_strong(self.strong, self.weak)
        assert cig.as_strong(self.other, self.weak)

    def test_mode_none_only_identity(self):
        cig = CheckImplicationGraph(self.universe, self.store,
                                    ImplicationMode.NONE)
        assert cig.as_strong(self.strong, self.strong)
        assert not cig.as_strong(self.strong, self.weak)
        assert not cig.as_strong(self.other, self.weak)

    def test_mode_cross_family(self):
        cig = CheckImplicationGraph(self.universe, self.store,
                                    ImplicationMode.CROSS_FAMILY)
        assert not cig.as_strong(self.strong, self.weak)  # same family off
        assert cig.as_strong(self.other, self.weak)       # edges still on


class TestClosures:
    def test_weaker_set_full(self):
        universe = CheckUniverse()
        strong = universe.add(c({"i": 1}, 5))
        weak = universe.add(c({"i": 1}, 9))
        other = universe.add(c({"j": 1}, 9))
        cig = CheckImplicationGraph(universe)
        assert set(ids_of(cig.weaker_set(strong))) == {strong, weak}

    def test_weaker_set_family_only(self):
        universe = CheckUniverse()
        a = universe.add(c({"i": 1}, 5))
        b = universe.add(c({"i": 1}, 9))
        z = universe.add(c({"z": 1}, 99))
        store = ImplicationStore()
        store.add(c({"i": 1}, 5), c({"z": 1}, 99))
        cig = CheckImplicationGraph(universe, store)
        assert z in ids_of(cig.weaker_set(a, family_only=False))
        assert z not in ids_of(cig.weaker_set(a, family_only=True))

    def test_strongest_implying(self):
        universe = CheckUniverse()
        weak = universe.add(c({"i": 1}, 9))
        mid = universe.add(c({"i": 1}, 7))
        strong = universe.add(c({"i": 1}, 5))
        cig = CheckImplicationGraph(universe)
        best = cig.strongest_implying(weak, mask(weak, mid, strong))
        assert best == strong

    def test_strongest_implying_ignores_other_families(self):
        universe = CheckUniverse()
        weak = universe.add(c({"i": 1}, 9))
        other = universe.add(c({"j": 1}, 1))
        cig = CheckImplicationGraph(universe)
        assert cig.strongest_implying(weak, mask(other)) is None

    def test_strongest_implying_cross_family(self):
        universe = CheckUniverse()
        weak = universe.add(c({"i": 1}, 9))
        samefam = universe.add(c({"i": 1}, 7))
        other = universe.add(c({"j": 1}, 4))
        store = ImplicationStore()
        # (j <= b) implies (i <= b + 2): `other` effectively imposes
        # i <= 6, beating the same-family candidate's i <= 7
        store.add_edge(LinearExpr({"j": 1}, 0), LinearExpr({"i": 1}, 0), 2)
        cig = CheckImplicationGraph(universe, store)
        candidates = mask(samefam, other)
        assert cig.strongest_implying(weak, candidates) == samefam
        assert cig.strongest_implying(
            weak, candidates, cross_family=True) == other

    def test_strongest_implying_cross_family_needs_path(self):
        universe = CheckUniverse()
        weak = universe.add(c({"i": 1}, 9))
        other = universe.add(c({"j": 1}, 1))
        cig = CheckImplicationGraph(universe)
        assert cig.strongest_implying(
            weak, mask(other), cross_family=True) is None

    def test_strongest_implying_tie_keeps_lowest_id(self):
        # (j <= 4) imposes i <= 4 + 2 = 6 through the edge, the same
        # bound as the same-family (i <= 6): the lower id wins, in
        # whichever order the families were registered
        edge = (LinearExpr({"j": 1}, 0), LinearExpr({"i": 1}, 0), 2)
        for order in ([c({"j": 1}, 4), c({"i": 1}, 6)],
                      [c({"i": 1}, 6), c({"j": 1}, 4)]):
            universe = CheckUniverse()
            weak = universe.add(c({"i": 1}, 9))
            first, second = [universe.add(check) for check in order]
            store = ImplicationStore()
            store.add_edge(*edge)
            cig = CheckImplicationGraph(universe, store)
            assert first < second
            assert cig.strongest_implying(
                weak, mask(second, first), cross_family=True) == first


class TestWeakerSetDefinition:
    """weaker_set against its definition on seeded random universes."""

    def random_graph(self, rng):
        families = ["f%d" % index for index in range(rng.randint(1, 6))]
        checks = [c({name: 1}, rng.randint(-8, 8)) for name in families
                  for _ in range(rng.randint(1, 8))]
        rng.shuffle(checks)  # ids interleave families and bounds
        universe = CheckUniverse()
        universe.add_all(checks)
        # edges may name families the universe never saw
        names = families + ["absent0", "absent1"]
        store = ImplicationStore()
        for _ in range(rng.randint(0, 12)):
            store.add_edge(LinearExpr({rng.choice(names): 1}, 0),
                           LinearExpr({rng.choice(names): 1}, 0),
                           rng.randint(-3, 6))
        return universe, store

    def test_matches_as_strong(self):
        rng = random.Random(1995)
        for _ in range(300):
            universe, store = self.random_graph(rng)
            for mode in ImplicationMode:
                cig = CheckImplicationGraph(universe, store, mode)
                for check_id in range(len(universe)):
                    family = universe.family_of[check_id]
                    for family_only in (False, True):
                        if family_only:
                            candidates = universe.family_members(family)
                        else:
                            candidates = range(len(universe))
                        expected = {check_id}
                        for other in candidates:
                            if cig.as_strong(check_id, other):
                                expected.add(other)
                        weaker = cig.weaker_set(check_id, family_only)
                        assert set(ids_of(weaker)) == expected
                        assert weaker == mask(*expected)
