"""The per-function CFG snapshot: what drops it, what reads it, what
the verifier does with a stale one, and what pickling leaves out."""

import os
import pickle

import pytest

from repro.analysis.dataflow import reverse_postorder
from repro.analysis.dominance import DominatorTree
from repro.benchsuite.registry import get_program
from repro.checks.config import OptimizerOptions, Scheme
from repro.checks.optimizer import RangeCheckOptimizer
from repro.errors import IRError
from repro.ir import (INT, Assign, BasicBlock, CondJump, Const, Function,
                      Jump, Return, Var)
from repro.ir.function import retarget
from repro.ir.verify import verify_function
from repro.pipeline.cache import FrontendCache
from repro.pipeline.driver import compile_source


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


@pytest.fixture
def successor_calls(monkeypatch):
    """Counts ``BasicBlock.successors`` calls from now on."""
    calls = [0]
    original = BasicBlock.successors

    def counted(block):
        calls[0] += 1
        return original(block)

    monkeypatch.setattr(BasicBlock, "successors", counted)
    return calls


class TestReads:
    def test_a_second_read_walks_no_successors(self, successor_calls):
        f, entry, left, right, join = diamond()
        preds = f.predecessor_map()
        rpo = reverse_postorder(f)
        DominatorTree(f)
        assert successor_calls[0] > 0
        successor_calls[0] = 0
        assert f.predecessor_map() is preds
        assert f.predecessors(join) is preds[join]
        assert reverse_postorder(f) is rpo
        assert DominatorTree(f).dominates(entry, join)
        assert successor_calls[0] == 0

    def test_predecessors_follow_block_order(self):
        f, entry, left, right, join = diamond()
        assert f.predecessors(join) == [left, right]
        assert f.predecessors(entry) == []


class TestDrops:
    def test_new_block(self):
        f, *_ = diamond()
        before = f.predecessor_map()
        orphan = f.new_block("orphan")
        assert f.predecessor_map() is not before
        assert f.predecessors(orphan) == []

    def test_retarget(self):
        f, entry, left, right, join = diamond()
        f.predecessor_map()
        retarget(left.terminator, join, right)
        assert f.predecessors(right) == [entry, left]
        assert f.predecessors(join) == [right]

    def test_split_edge(self):
        f, entry, left, right, join = diamond()
        rpo = reverse_postorder(f)
        middle = f.split_edge(left, join)
        assert reverse_postorder(f) is not rpo
        assert middle in reverse_postorder(f)
        assert f.predecessors(join) == [right, middle]

    def test_terminator_append_insert_and_remove(self):
        f, entry, left, right, join = diamond()
        f.predecessor_map()
        term = left.terminator
        left.remove(term)
        assert f.predecessors(join) == [right]
        left.append(Jump(right))
        assert f.predecessors(right) == [entry, left]
        left.remove(left.terminator)
        left.insert(0, Jump(join))
        assert f.predecessors(join) == [left, right]

    def test_plain_instructions_keep_it(self):
        f, entry, left, right, join = diamond()
        before = f.predecessor_map()
        left.insert_before_terminator(Assign(Var("x", INT), Const(1)))
        assert f.predecessor_map() is before

    def test_remove_unreachable_blocks(self):
        f, entry, left, right, join = diamond()
        orphan = f.new_block("orphan")
        orphan.append(Jump(join))
        assert f.predecessors(join) == [left, right, orphan]
        f.remove_unreachable_blocks()
        assert f.predecessors(join) == [left, right]

    def test_cfg_changed(self):
        f, entry, left, right, join = diamond()
        before = f.predecessor_map()
        f.cfg_changed()
        assert f.predecessor_map() is not before
        assert f.predecessor_map() == before


class TestVerifierAudit:
    def test_direct_target_edit_is_caught(self):
        f, entry, left, right, join = diamond()
        f.predecessor_map()
        left.terminator.target = right  # bypasses retarget
        with pytest.raises(IRError, match="function f:.*stale"):
            verify_function(f)
        f.cfg_changed()
        verify_function(f)

    def test_stale_reverse_postorder_is_caught(self):
        f, entry, left, right, join = diamond()
        reverse_postorder(f)
        term = entry.terminator
        # swapping the arms keeps every predecessor list, not the RPO
        term.if_true, term.if_false = term.if_false, term.if_true
        with pytest.raises(IRError, match="function f:.*reverse postorder"):
            verify_function(f)

    def test_a_function_without_one_verifies(self):
        f, *_ = diamond()
        f.cfg_changed()
        verify_function(f)


class TestPickling:
    def test_vortex_blob_carries_no_snapshot(self, tmp_path):
        source = get_program("vortex").source
        cache = FrontendCache(disk_dir=str(tmp_path))
        # a miss hands over the module it pickled, whose functions SSA
        # construction read dominators from
        built = cache.frontend(source)
        [name] = [name for name in os.listdir(str(tmp_path))
                  if name.endswith(".frontend.pickle")]
        with open(os.path.join(str(tmp_path), name), "rb") as handle:
            entry = handle.read()
        for function in built:
            function.cfg_changed()
        assert entry.endswith(pickle.dumps(built, pickle.HIGHEST_PROTOCOL))
        # a clone starts without one, and reading one changes nothing
        clone = cache.frontend(source)
        blob = pickle.dumps(clone, pickle.HIGHEST_PROTOCOL)
        for function in clone:
            assert function._cfg is None
            DominatorTree(function)
        assert pickle.dumps(clone, pickle.HIGHEST_PROTOCOL) == blob


class TestVerifyEveryStep:
    def test_prx_all_on_vortex(self, monkeypatch):
        import repro.checks.optimizer as optimizer

        calls = []
        original = optimizer.verify_function

        def counted(function):
            calls.append(function.name)
            return original(function)

        monkeypatch.setattr(optimizer, "verify_function", counted)
        source = get_program("vortex").source
        options = OptimizerOptions(scheme=Scheme.ALL)
        program = compile_source(source, options, verify_ir=True)
        functions = len(program.module.functions)
        steps = len(RangeCheckOptimizer.SCHEME_STEPS[Scheme.ALL])
        # each step, elimination, and the final check after folding
        assert len(calls) == functions * (steps + 2)
        calls.clear()
        compile_source(source, options)
        assert len(calls) == functions
