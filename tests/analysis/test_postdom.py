"""Tests for postdominator analysis."""

import pickle

from repro.analysis import PostDominators
from repro.benchsuite.registry import all_programs, cross_call_programs
from repro.checks.config import OptimizerOptions, Scheme
from repro.ir import CondJump, Const, Function, Jump, Return
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source
from repro.ssa import destruct_ssa

from ..conftest import lower_ssa


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


class TestPostDominators:
    def test_join_postdominates_everything(self):
        f, entry, left, right, join = diamond()
        pdom = PostDominators(f)
        for block in (entry, left, right, join):
            assert pdom.postdominates(join, block)

    def test_arms_do_not_postdominate_entry(self):
        f, entry, left, right, join = diamond()
        pdom = PostDominators(f)
        assert not pdom.postdominates(left, entry)
        assert not pdom.postdominates(right, entry)

    def test_reflexive(self):
        f, entry, *_ = diamond()
        pdom = PostDominators(f)
        assert pdom.postdominates(entry, entry)

    def test_loop_body_postdominates_itself_only(self):
        module = lower_ssa("""
program p
  integer :: i, s
  s = 0
  do i = 1, 3
    if (mod(i, 2) == 0) then
      s = s + 1
    end if
    s = s + i
  end do
  print s
end program
""")
        main = module.main
        pdom = PostDominators(main)
        body = next(b for b in main.blocks if b.name.startswith("do_body"))
        then_block = next(b for b in main.blocks
                          if b.name.startswith("if_then"))
        join = next(b for b in main.blocks if b.name.startswith("if_exit"))
        # the if-join postdominates the body entry; the then-arm does not
        assert pdom.postdominates(join, body)
        assert not pdom.postdominates(then_block, body)

    def test_multiple_exits(self):
        f = Function("f", is_main=True)
        entry = f.new_block("entry")
        a = f.new_block("a")
        b = f.new_block("b")
        entry.append(CondJump(Const(True), a, b))
        a.append(Return())
        b.append(Return())
        pdom = PostDominators(f)
        assert not pdom.postdominates(a, entry)
        assert not pdom.postdominates(b, entry)
        assert pdom.postdominates(a, a)

    def test_block_that_never_exits_is_postdominated_by_itself_only(self):
        f = Function("f", is_main=True)
        entry = f.new_block("entry")
        spin = f.new_block("spin")
        spin2 = f.new_block("spin2")
        done = f.new_block("done")
        entry.append(CondJump(Const(True), spin, done))
        spin.append(Jump(spin2))
        spin2.append(Jump(spin))
        done.append(Return())
        pdom = PostDominators(f)
        assert pdom.postdominates(spin, spin)
        for other in (entry, spin2, done):
            assert not pdom.postdominates(other, spin)
        assert pdom.ipdom.get(spin) is None
        # the one path to an exit still counts for the entry
        assert pdom.ipdom[entry] is done

    def test_branch_to_two_returns_has_no_ipdom(self):
        f = Function("f", is_main=True)
        entry = f.new_block("entry")
        a = f.new_block("a")
        b = f.new_block("b")
        entry.append(CondJump(Const(True), a, b))
        a.append(Return())
        b.append(Return())
        pdom = PostDominators(f)
        assert entry in pdom.ipdom and pdom.ipdom[entry] is None
        assert pdom.ipdom[a] is None

    def test_diamond_ipdom_is_the_join(self):
        f, entry, left, right, join = diamond()
        pdom = PostDominators(f)
        assert pdom.ipdom == {entry: join, left: join, right: join,
                              join: None}


def exits_reached(function, removed=None):
    """The blocks with a path to a block without successors that does
    not pass through ``removed``."""
    preds = function.predecessor_map()
    found = set()
    stack = [block for block in function.blocks
             if not block.successors() and block is not removed]
    while stack:
        block = stack.pop()
        if block not in found:
            found.add(block)
            stack.extend(p for p in preds[block] if p is not removed)
    return found


def registry_functions():
    """Every function of the 13 registry programs under NI, MCM and
    SPEC, inline off and on, in SSA and in destructed form."""
    cache = FrontendCache()
    for program in all_programs() + cross_call_programs():
        for scheme in (Scheme.NI, Scheme.MCM, Scheme.SPEC):
            for inline in (False, True):
                options = OptimizerOptions(scheme, inline=inline)
                module = compile_source(program.source, options,
                                        cache=cache).module
                destructed = pickle.loads(pickle.dumps(module))
                for function in destructed:
                    destruct_ssa(function)
                yield from module
                yield from destructed


class TestAgainstBruteForce:
    def test_registry_programs(self):
        """``a`` postdominates ``b`` iff ``b`` is ``a``, or ``b``
        reaches an exit and reaches none once ``a`` is removed."""
        checked = 0
        for function in registry_functions():
            pdom = PostDominators(function)
            exiting = exits_reached(function)
            for a in function.blocks:
                escaping = exits_reached(function, a)
                for b in function.blocks:
                    expected = b is a or (b in exiting
                                          and b not in escaping)
                    assert pdom.postdominates(a, b) == expected, \
                        (function.name, a.name, b.name)
                    checked += 1
        assert checked > 100000
