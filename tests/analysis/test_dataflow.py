"""Tests for the shared block order of the dataflow passes."""

from repro.analysis import reverse_postorder

from ..conftest import lower_ssa


class TestReversePostorder:
    def test_entry_first(self, loop_program):
        main = lower_ssa(loop_program).main
        order = reverse_postorder(main)
        assert order[0] is main.entry

    def test_covers_reachable_blocks(self, loop_program):
        main = lower_ssa(loop_program).main
        order = reverse_postorder(main)
        # lowering drops unreachable blocks, so every block is reached
        assert set(order) == set(main.blocks)

    def test_predecessor_before_successor_for_acyclic(self):
        main = lower_ssa("""
program p
  integer :: i
  i = 0
  if (i < 1) then
    i = 1
  else
    i = 2
  end if
  print i
end program
""").main
        order = reverse_postorder(main)
        position = {b: idx for idx, b in enumerate(order)}
        for block in order:
            for succ in block.successors():
                if position[succ] > position[block]:
                    continue
                # only back edges may violate the ordering; none here
                raise AssertionError("acyclic CFG out of order")

