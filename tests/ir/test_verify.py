"""Tests for the IR verifier."""

import pytest

from repro.errors import IRError
from repro.ir import (Assign, Const, Function, INT, Jump, Module, Phi,
                      Return, Var, verify_function, verify_module)
from repro.ir.instructions import Call


def terminated_function():
    f = Function("f", is_main=True)
    block = f.new_block("entry")
    block.append(Return())
    return f, block


class TestVerifyFunction:
    def test_valid_function_passes(self):
        f, _ = terminated_function()
        verify_function(f)

    def test_missing_entry(self):
        with pytest.raises(IRError):
            verify_function(Function("f"))

    def test_unterminated_block(self):
        f = Function("f")
        block = f.new_block()
        block.append(Assign(Var("x", INT), Const(1)))
        with pytest.raises(IRError):
            verify_function(f)

    def test_empty_block(self):
        f = Function("f")
        f.new_block()
        with pytest.raises(IRError):
            verify_function(f)

    def test_misplaced_phi(self):
        f, block = terminated_function()
        block.insert(0, Assign(Var("x", INT), Const(1)))
        block.insert(1, Phi(Var("y", INT)))
        with pytest.raises(IRError):
            verify_function(f)

    def test_phi_predecessor_mismatch(self):
        f = Function("f")
        entry = f.new_block("entry")
        other = f.new_block("other")
        join = f.new_block("join")
        entry.append(Jump(join))
        other.append(Jump(join))  # 'other' is unreachable but listed
        phi = Phi(Var("x", INT), [(entry, Const(1))])
        join.insert(0, phi)
        join.append(Return())
        with pytest.raises(IRError):
            verify_function(f)

    def test_stale_block_pointer(self):
        f, block = terminated_function()
        stray = Assign(Var("x", INT), Const(1))
        stray.block = None
        block.instructions.insert(0, stray)  # bypass append()
        with pytest.raises(IRError):
            verify_function(f)

    def test_noncanonical_check(self):
        from repro.ir import Check
        from repro.symbolic import LinearExpr
        f, block = terminated_function()
        bad = Check.__new__(Check)
        bad.linexpr = LinearExpr({"i": 1}, 5)  # nonzero constant term
        bad.bound = 0
        bad.operands = {"i": Var("i", INT)}
        bad.kind = "upper"
        bad.array = ""
        bad.guards = []
        bad.context = ""
        bad.block = block
        block.instructions.insert(0, bad)
        with pytest.raises(IRError):
            verify_function(f)


class TestVerifyModule:
    def test_call_scalar_arity(self):
        module = Module()
        caller = Function("main", is_main=True)
        entry = caller.new_block()
        entry.append(Call("callee", [Const(1), Const(2)]))
        entry.append(Return())
        callee = Function("callee")
        callee.add_param(Var("n", INT))
        callee.new_block().append(Return())
        module.add(caller)
        module.add(callee)
        with pytest.raises(IRError):
            verify_module(module)

    def test_call_array_arity(self):
        module = Module()
        caller = Function("main", is_main=True)
        entry = caller.new_block()
        entry.append(Call("callee", [], ["a"]))
        entry.append(Return())
        callee = Function("callee")
        callee.new_block().append(Return())
        module.add(caller)
        module.add(callee)
        with pytest.raises(IRError):
            verify_module(module)

    def test_call_unknown_function(self):
        module = Module()
        caller = Function("main", is_main=True)
        entry = caller.new_block()
        entry.append(Call("ghost", []))
        entry.append(Return())
        module.add(caller)
        with pytest.raises(IRError):
            verify_module(module)


class TestPhiConsistency:
    def test_phi_in_entry_block(self):
        f, block = terminated_function()
        block.insert(0, Phi(Var("x", INT)))
        with pytest.raises(IRError):
            verify_function(f)

    def test_phi_incoming_block_not_in_function(self):
        other = Function("other")
        foreign = other.new_block("foreign")
        foreign.append(Return())
        f = Function("f")
        entry = f.new_block("entry")
        join = f.new_block("join")
        entry.append(Jump(join))
        join.insert(0, Phi(Var("x", INT), [(foreign, Const(1))]))
        join.append(Return())
        with pytest.raises(IRError):
            verify_function(f)

    def test_phi_arity_mismatch(self):
        from repro.ir.instructions import CondJump
        f = Function("f")
        entry = f.new_block("entry")
        left = f.new_block("left")
        right = f.new_block("right")
        join = f.new_block("join")
        entry.append(CondJump(Const(1), left, right))
        left.append(Jump(join))
        right.append(Jump(join))
        # only one incoming value for two predecessors
        join.insert(0, Phi(Var("x", INT), [(left, Const(1))]))
        join.append(Return())
        with pytest.raises(IRError):
            verify_function(f)


def diamond():
    """entry -> (left | right) -> join, all terminated, no phis yet."""
    from repro.ir.instructions import CondJump
    f = Function("f")
    entry = f.new_block("entry")
    left = f.new_block("left")
    right = f.new_block("right")
    join = f.new_block("join")
    entry.append(CondJump(Const(1), left, right))
    left.append(Jump(join))
    right.append(Jump(join))
    join.append(Return())
    f.ssa_form = True
    return f, entry, left, right, join


class TestDefDominatesUse:
    def test_valid_diamond_with_phi_passes(self):
        f, entry, left, right, join = diamond()
        left.insert(0, Assign(Var("x.1", INT), Const(1)))
        right.insert(0, Assign(Var("x.2", INT), Const(2)))
        join.insert(0, Phi(Var("x.3", INT),
                           [(left, Var("x.1", INT)),
                            (right, Var("x.2", INT))]))
        verify_function(f)

    def test_sibling_def_does_not_dominate_use(self):
        f, entry, left, right, join = diamond()
        left.insert(0, Assign(Var("x.1", INT), Const(1)))
        # 'right' uses a definition made only on the sibling path
        right.insert(0, Assign(Var("y.1", INT), Var("x.1", INT)))
        with pytest.raises(IRError, match="does not dominate"):
            verify_function(f)

    def test_branch_def_used_in_join_without_phi(self):
        f, entry, left, right, join = diamond()
        left.insert(0, Assign(Var("x.1", INT), Const(1)))
        join.insert(0, Assign(Var("y.1", INT), Var("x.1", INT)))
        with pytest.raises(IRError, match="does not dominate"):
            verify_function(f)

    def test_use_before_def_in_same_block(self):
        f, block = terminated_function()
        f.ssa_form = True
        block.insert(0, Assign(Var("y.1", INT), Var("x.1", INT)))
        block.insert(1, Assign(Var("x.1", INT), Const(1)))
        with pytest.raises(IRError, match="precedes its definition"):
            verify_function(f)

    def test_phi_use_must_dominate_incoming_edge(self):
        f, entry, left, right, join = diamond()
        left.insert(0, Assign(Var("x.1", INT), Const(1)))
        # the value flowing in from 'right' is only defined on 'left'
        join.insert(0, Phi(Var("x.2", INT),
                           [(left, Var("x.1", INT)),
                            (right, Var("x.1", INT))]))
        with pytest.raises(IRError, match="does not dominate"):
            verify_function(f)

    def test_undefined_read_is_legal(self):
        # reads before any write default to zero; no def to dominate
        f, block = terminated_function()
        f.ssa_form = True
        block.insert(0, Assign(Var("y.1", INT), Var("x", INT)))
        verify_function(f)

    def test_non_ssa_function_is_exempt(self):
        # two defs of the same name with ssa_form off: dominance rule
        # (and the single-def rule) are not in force
        f, entry, left, right, join = diamond()
        f.ssa_form = False
        left.insert(0, Assign(Var("x", INT), Const(1)))
        right.insert(0, Assign(Var("x", INT), Const(2)))
        join.insert(0, Assign(Var("y", INT), Var("x", INT)))
        verify_function(f)

    def test_ssa_function_rejects_double_def(self):
        f, entry, left, right, join = diamond()
        left.insert(0, Assign(Var("x", INT), Const(1)))
        right.insert(0, Assign(Var("x", INT), Const(2)))
        with pytest.raises(IRError, match="more than once"):
            verify_function(f)
