"""Tests for dominators and dominance frontiers."""

from repro.analysis import DominatorTree
from repro.benchsuite.registry import all_programs
from repro.ir import CondJump, Const, Function, Jump, Return

from ..conftest import lower
from .test_postdom import registry_functions


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


def on_idom_chain(tree, a, b):
    """The definition: ``a`` is ``b`` or an ancestor of ``b`` in the
    immediate-dominator tree."""
    node = b
    while node is not None:
        if node is a:
            return True
        node = tree.idom.get(node)
    return False


def assert_queries_match_the_chain(function):
    tree = DominatorTree(function)
    checked = 0
    for a in function.blocks:
        for b in function.blocks:
            expected = on_idom_chain(tree, a, b)
            assert tree.dominates(a, b) == expected, \
                (function.name, a.name, b.name)
            assert tree.strictly_dominates(a, b) == \
                (expected and a is not b), (function.name, a.name, b.name)
            checked += 1
    return checked


class TestConstantTimeQueries:
    def test_registry_functions(self):
        """Every block pair of the 13 registry and cross-call programs
        under NI, MCM and SPEC, inline off and on, SSA and destructed."""
        checked = sum(assert_queries_match_the_chain(function)
                      for function in registry_functions())
        assert checked > 100000

    def test_unreachable_block_dominates_only_itself(self):
        f, entry, header, body, exit_block = loop()
        orphan = f.new_block("orphan")
        orphan.append(Jump(body))
        assert_queries_match_the_chain(f)
        tree = DominatorTree(f)
        assert tree.dominates(orphan, orphan)
        assert not tree.strictly_dominates(orphan, orphan)
        for block in (entry, header, body, exit_block):
            assert not tree.dominates(orphan, block)
            assert not tree.dominates(block, orphan)

    def test_deep_tree(self):
        """A chain of 3,000 blocks numbers without recursion."""
        f = Function("f", is_main=True)
        blocks = [f.new_block("b") for _ in range(3000)]
        for block, succ in zip(blocks, blocks[1:]):
            block.append(Jump(succ))
        blocks[-1].append(Return())
        tree = DominatorTree(f)
        assert tree.dominates(blocks[0], blocks[-1])
        assert tree.strictly_dominates(blocks[1000], blocks[2000])
        assert not tree.dominates(blocks[2000], blocks[1000])
