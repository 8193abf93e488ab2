"""Tests for natural-loop detection, the loop forest, and preheaders."""

from repro.analysis import LoopForest
from repro.analysis.dominance import DominatorTree
from repro.ir import CondJump, Const, Function, Jump, Return

from ..conftest import lower_ssa
from ..pipeline.test_long_programs import sequential_ifs


def nested_loops_source():
    return """
program nest
  input integer :: n = 4
  integer :: i, j, s
  s = 0
  do i = 1, n
    do j = 1, n
      s = s + 1
    end do
  end do
  print s
end program
"""


class TestDetection:
    def test_single_loop(self, loop_program):
        module = lower_ssa(loop_program)
        forest = LoopForest(module.main)
        assert len(forest.loops) == 1
        loop = forest.loops[0]
        assert loop.header.name.startswith("do_head")
        assert len(loop.latches) == 1

    def test_nested_loops(self):
        module = lower_ssa(nested_loops_source())
        forest = LoopForest(module.main)
        assert len(forest.loops) == 2
        inner = [lp for lp in forest.loops if lp.parent is not None]
        assert len(inner) == 1
        assert inner[0].parent in forest.loops

    def test_depths(self):
        module = lower_ssa(nested_loops_source())
        forest = LoopForest(module.main)
        depths = sorted(loop.depth for loop in forest.loops)
        assert depths == [1, 2]

    def test_inner_to_outer_order(self):
        module = lower_ssa(nested_loops_source())
        forest = LoopForest(module.main)
        order = forest.inner_to_outer()
        assert order[0].depth == 2
        assert order[1].depth == 1

    def test_no_loops(self):
        module = lower_ssa("program p\ninteger :: i\ni = 1\nend program")
        assert LoopForest(module.main).loops == []

    def test_while_loop_detected(self):
        module = lower_ssa("""
program p
  integer :: i
  i = 0
  while (i < 5) do
    i = i + 1
  end while
  print i
end program
""")
        forest = LoopForest(module.main)
        assert len(forest.loops) == 1

    def test_straight_code_asks_no_dominance(self):
        # only a retreating edge can close a loop; every edge of ifs in
        # a row advances in reverse postorder, so none is tested
        function = lower_ssa(sequential_ifs(50)).main
        domtree = DominatorTree(function)
        calls = []

        def dominates(a, b):
            calls.append((a, b))
            return DominatorTree.dominates(domtree, a, b)

        domtree.dominates = dominates
        assert LoopForest(function, domtree).loops == []
        assert calls == []

    def test_exit_edges(self, loop_program):
        module = lower_ssa(loop_program)
        forest = LoopForest(module.main)
        edges = forest.loops[0].exit_edges()
        assert len(edges) == 1
        inside, outside = edges[0]
        assert inside is forest.loops[0].header
        assert outside not in forest.loops[0].blocks


class TestPreheaders:
    def test_lowered_loops_have_preheaders(self, loop_program):
        module = lower_ssa(loop_program)
        forest = LoopForest(module.main)
        pre = forest.preheader(forest.loops[0])
        assert pre is not None
        assert pre not in forest.loops[0].blocks

    def test_get_or_create_returns_existing(self, loop_program):
        module = lower_ssa(loop_program)
        forest = LoopForest(module.main)
        existing = forest.preheader(forest.loops[0])
        assert forest.get_or_create_preheader(forest.loops[0]) is existing

    def test_create_when_entry_is_branch(self):
        # hand-build a loop whose entry edge comes from a conditional
        f = Function("f", is_main=True)
        entry = f.new_block("entry")
        header = f.new_block("header")
        other = f.new_block("other")
        body = f.new_block("body")
        exit_block = f.new_block("exit")
        entry.append(CondJump(Const(True), header, other))
        other.append(Return())
        header.append(CondJump(Const(True), body, exit_block))
        body.append(Jump(header))
        exit_block.append(Return())
        forest = LoopForest(f)
        loop = forest.loops[0]
        assert forest.preheader(loop) is None
        pre = forest.get_or_create_preheader(loop)
        assert pre.successors() == [header]
        assert entry.successors()[0] is pre
        # idempotent afterwards
        assert forest.preheader(loop) is pre

    def test_inner_preheader_inside_outer_loop(self):
        module = lower_ssa(nested_loops_source())
        forest = LoopForest(module.main)
        inner = forest.inner_to_outer()[0]
        outer = forest.inner_to_outer()[1]
        pre = forest.get_or_create_preheader(inner)
        assert pre in outer.blocks
