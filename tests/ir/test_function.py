"""Tests for Function/Module structure and CFG edits."""

import pickle

import pytest

from repro.errors import IRError
from repro.ir import (ArrayType, Const, Dimension, Function, INT, Jump,
                      Module, Phi, REAL, Return, CondJump, Var,
                      format_function)


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


class TestFunction:
    def test_first_block_is_entry(self):
        f = Function("f")
        block = f.new_block()
        assert f.entry is block

    def test_predecessors(self):
        f, entry, left, right, join = diamond()
        preds = f.predecessor_map()
        assert set(preds[join]) == {left, right}
        assert preds[entry] == []

    def test_reachable_blocks(self):
        f, *_ = diamond()
        orphan = f.new_block("orphan")
        orphan.append(Return())
        assert orphan not in f.reachable_blocks()

    def test_remove_unreachable(self):
        f, *_ = diamond()
        orphan = f.new_block("orphan")
        orphan.append(Return())
        removed = f.remove_unreachable_blocks()
        assert orphan in removed
        assert orphan not in f.blocks

    def test_remove_unreachable_prunes_phis(self):
        f, entry, left, right, join = diamond()
        orphan = f.new_block("orphan")
        orphan.append(Jump(join))
        phi = Phi(Var("x", INT), [(left, Const(1)), (right, Const(2)),
                                  (orphan, Const(3))])
        join.insert(0, phi)
        f.remove_unreachable_blocks()
        assert len(phi.incoming) == 2

    def test_duplicate_array_rejected(self):
        f = Function("f")
        atype = ArrayType(REAL, [Dimension.of(1, 4)])
        f.add_array("a", atype)
        with pytest.raises(IRError):
            f.add_array("a", atype)

    def test_scalar_redeclared_with_other_type(self):
        f = Function("f")
        f.declare_scalar(Var("x", INT))
        with pytest.raises(IRError):
            f.declare_scalar(Var("x", REAL))

    def test_split_edge(self):
        f, entry, left, right, join = diamond()
        middle = f.split_edge(left, join)
        assert middle in f.blocks
        assert left.successors() == [middle]
        assert middle.successors() == [join]

    def test_split_edge_retargets_phi(self):
        f, entry, left, right, join = diamond()
        phi = Phi(Var("x", INT), [(left, Const(1)), (right, Const(2))])
        join.insert(0, phi)
        middle = f.split_edge(left, join)
        assert phi.value_for(middle) == Const(1)

    def test_split_conditional_edge(self):
        f, entry, left, right, join = diamond()
        middle = f.split_edge(entry, left)
        assert entry.successors()[0] is middle

    def test_split_missing_edge_fails(self):
        f, entry, left, right, join = diamond()
        with pytest.raises(IRError):
            f.split_edge(left, entry)


class TestModule:
    def test_main_registration(self):
        module = Module()
        module.add(Function("main", is_main=True))
        assert module.main.name == "main"

    def test_duplicate_function(self):
        module = Module()
        module.add(Function("f"))
        with pytest.raises(IRError):
            module.add(Function("f"))

    def test_two_mains_rejected(self):
        module = Module()
        module.add(Function("a", is_main=True))
        with pytest.raises(IRError):
            module.add(Function("b", is_main=True))

    def test_lookup_unknown(self):
        with pytest.raises(IRError):
            Module().lookup("ghost")


def diamonds(count):
    """A function of ``count`` diamonds in a row: 3 * count + 1 blocks,
    each join's phi merging the two arms."""
    f = Function("long", is_main=True)
    block = f.new_block("entry")
    for index in range(count):
        left, right = f.new_block("left"), f.new_block("right")
        join = f.new_block("join")
        block.append(CondJump(Const(True), left, right))
        left.append(Jump(join))
        right.append(Jump(join))
        join.append(Phi(Var("x%d" % index, INT),
                        [(left, Const(1)), (right, Const(2))]))
        block = join
    block.append(Return())
    return f


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestPickle:
    """A pickle round trip is how IR is copied; its depth must not grow
    with the CFG."""

    def test_long_function_round_trips(self):
        f = diamonds(700)
        assert len(f.blocks) >= 2000
        clone = round_trip(f)  # under the default recursion limit
        assert format_function(clone) == format_function(f)
        assert clone.entry is clone.blocks[0]
        for block in clone.blocks:
            assert block.function is clone
            assert all(inst.block is block for inst in block.instructions)

    def test_block_pickled_alone_brings_its_function(self):
        f, entry, left, right, join = diamond()
        clone = round_trip(left)
        assert clone.function.blocks[1] is clone
        assert format_function(clone.function) == format_function(f)
        assert clone.successors() == [clone.function.blocks[3]]

    def test_instruction_pickled_alone_brings_its_function(self):
        f, entry, left, right, join = diamond()
        clone = round_trip(entry.terminator)
        assert clone.block.terminator is clone
        assert clone.block.function.entry is clone.block
        assert format_function(clone.block.function) == format_function(f)
