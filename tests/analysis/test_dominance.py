"""Tests for dominators and dominance frontiers."""

from repro.analysis import DominatorTree
from repro.benchsuite.registry import all_programs
from repro.ir import CondJump, Const, Function, Jump, Return

from ..conftest import lower


def diamond():
    f = Function("f", is_main=True)
    entry = f.new_block("entry")
    left = f.new_block("left")
    right = f.new_block("right")
    join = f.new_block("join")
    entry.append(CondJump(Const(True), left, right))
    left.append(Jump(join))
    right.append(Jump(join))
    join.append(Return())
    return f, entry, left, right, join


def loop():
    f = Function("f", is_main=True)
    entry = f.new_block("entry")
    header = f.new_block("header")
    body = f.new_block("body")
    exit_block = f.new_block("exit")
    entry.append(Jump(header))
    header.append(CondJump(Const(True), body, exit_block))
    body.append(Jump(header))
    exit_block.append(Return())
    return f, entry, header, body, exit_block


class TestIdoms:
    def test_diamond_idoms(self):
        f, entry, left, right, join = diamond()
        tree = DominatorTree(f)
        assert tree.idom[entry] is None
        assert tree.idom[left] is entry
        assert tree.idom[right] is entry
        assert tree.idom[join] is entry

    def test_loop_idoms(self):
        f, entry, header, body, exit_block = loop()
        tree = DominatorTree(f)
        assert tree.idom[header] is entry
        assert tree.idom[body] is header
        assert tree.idom[exit_block] is header

    def test_dominates_reflexive(self):
        f, entry, *_ = diamond()
        tree = DominatorTree(f)
        assert tree.dominates(entry, entry)

    def test_dominates_transitive(self):
        f, entry, header, body, _ = loop()
        tree = DominatorTree(f)
        assert tree.dominates(entry, body)
        assert not tree.dominates(body, header)

    def test_strict_dominance(self):
        f, entry, header, *_ = loop()
        tree = DominatorTree(f)
        assert tree.strictly_dominates(entry, header)
        assert not tree.strictly_dominates(entry, entry)

    def test_children(self):
        f, entry, left, right, join = diamond()
        tree = DominatorTree(f)
        assert set(tree.children[entry]) == {left, right, join}


class TestFrontiers:
    def test_diamond_frontier(self):
        f, entry, left, right, join = diamond()
        tree = DominatorTree(f)
        assert tree.frontier[left] == {join}
        assert tree.frontier[right] == {join}
        assert tree.frontier[entry] == set()

    def test_loop_frontier_contains_header(self):
        f, entry, header, body, _ = loop()
        tree = DominatorTree(f)
        assert header in tree.frontier[body]
        assert header in tree.frontier[header]

    def test_nested_diamond(self):
        f, entry, left, right, join = diamond()
        tree = DominatorTree(f)
        # join is dominated only by entry (not by either branch)
        assert not tree.dominates(left, join)
        assert not tree.dominates(right, join)


def frontier_by_definition(function):
    """DF(x): the blocks y with a predecessor that x dominates, where x
    does not strictly dominate y."""
    tree = DominatorTree(function)
    reachable = set(tree.rpo)
    preds = function.predecessor_map()
    return {x: {y for y in tree.rpo
                if any(p in reachable and tree.dominates(x, p)
                       for p in preds[y])
                and not tree.strictly_dominates(x, y)}
            for x in tree.rpo}


class TestLazyFrontiers:
    def test_registry_frontiers_match_the_definition(self):
        for program in all_programs():
            for function in lower(program.source):
                expected = frontier_by_definition(function)
                assert DominatorTree(function).frontier == expected

    def test_late_read_sees_the_built_cfg(self):
        f, entry, left, right, join = diamond()
        tree = DominatorTree(f)
        expected = frontier_by_definition(f)
        f.split_edge(left, join)
        assert tree.frontier == expected
