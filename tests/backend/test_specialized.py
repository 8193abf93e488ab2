"""Tests for the tier-2 specialized back-end (flat source +
NumPy-vectorized affine loops).

The parity bar has two parts:

* the specialized engine must agree with the direct-threaded engine on
  *every* counter (both run destructed SSA, so even ``phis`` matches);
* both back-ends must agree with the interpreter on the bench-parity
  fields (``phis`` legitimately differs 2:1 — destruction charges the
  pc-temp copy and the landing copy per phi).
"""

import builtins
import pickle

import pytest

from repro.backend import compile_to_python, compile_to_specialized
from repro.backend import pybackend
from repro.backend import specialized as tier2
from repro.benchsuite import BENCH_PARITY_FIELDS, all_programs
from repro.checks import OptimizerOptions, Scheme, optimize_module
from repro.errors import InterpError, RangeTrap, StepLimitError
from repro.fuzz.generator import generate_program
from repro.interp import Machine
from repro.pipeline import compile_source
from repro.ssa import destruct_ssa

from ..conftest import lower_ssa

ALL_COUNTERS = ("instructions", "checks", "guarded_checks",
                "guard_skipped", "traps", "phis")


def _clone(module):
    return pickle.loads(pickle.dumps(module))


def ssa_module(source, options=None):
    module = lower_ssa(source)
    if options is not None:
        optimize_module(module, options)
    return module


def specialized(source, options=None):
    """Compile straight to the tier-2 engine (consumes a private SSA
    clone, as the cache does)."""
    return compile_to_specialized(_clone(ssa_module(source, options)))


def tri_parity(source, inputs=None, options=None):
    """Run all three engines; assert the full parity contract."""
    module = ssa_module(source, options)
    machine = Machine(_clone(module), inputs)
    machine.run()
    threaded_mod = _clone(module)
    for function in threaded_mod:
        destruct_ssa(function)
    threaded = compile_to_python(threaded_mod).run(inputs)
    spec = compile_to_specialized(_clone(module)).run(inputs)
    assert spec.output == threaded.output == machine.output
    for field in ALL_COUNTERS:
        assert getattr(spec.counters, field) == \
            getattr(threaded.counters, field), field
    for field in BENCH_PARITY_FIELDS:
        assert getattr(spec.counters, field) == \
            getattr(machine.counters, field), field
    return spec


class TestTriEngineParity:
    def test_loop_program(self, loop_program):
        tri_parity(loop_program, {"n": 12})

    def test_arithmetic_semantics(self):
        tri_parity("""
program p
  input integer :: a = -7, b = 2
  real :: x
  x = 1.5
  print a / b
  print mod(a, b)
  print abs(a) * 2
  print min(a, b)
  print x / 2.0
  print sqrt(4.0)
end program
""")

    def test_branches_and_while(self):
        tri_parity("""
program p
  integer :: i, s
  s = 0
  i = 0
  while (i < 9) do
    i = i + 1
    if (mod(i, 2) == 0) then
      s = s + i
    else
      s = s - 1
    end if
  end while
  print s
end program
""")

    def test_subroutine_calls(self):
        tri_parity("""
program p
  input integer :: n = 6
  real :: a(10)
  call fill(n, a)
  print a(3)
end program
subroutine fill(n, a)
  integer :: n, i
  real :: a(10)
  do i = 1, n
    a(i) = real(i) * 1.5
  end do
end subroutine
""")

    @pytest.mark.parametrize("scheme", [Scheme.NI, Scheme.LLS, Scheme.ALL])
    def test_optimized_programs(self, loop_program, scheme):
        tri_parity(loop_program, {"n": 10},
                   OptimizerOptions(scheme=scheme))

    @pytest.mark.parametrize("index", range(10))
    def test_benchmark_suite(self, index):
        program = all_programs()[index]
        tri_parity(program.source, program.test_inputs)


VECTORIZABLE = """
program vec
  input integer :: n = 50
  integer :: i
  real :: a(100), b(100)
  do i = 1, n
    a(i) = real(i) * 1.5
  end do
  do i = 1, n
    b(i) = a(i) * 2.0 + 1.0
  end do
  print b(n)
end program
"""


class TestVectorization:
    def test_kernels_emitted_for_affine_loops(self):
        compiled = specialized(VECTORIZABLE)
        assert "def _vk0" in compiled.source
        assert "def _vk1" in compiled.source
        assert "_vload" in compiled.source

    def test_vectorized_parity(self):
        tri_parity(VECTORIZABLE, {"n": 50})
        tri_parity(VECTORIZABLE, {"n": 1})

    def test_recurrence_falls_back_at_runtime(self, loop_program):
        # a(i) = a(i-1) + 1.0 reads the cell the previous iteration
        # wrote: the kernel's runtime disjointness hazard must reject
        # it and the scalar loop reproduces the interpreter exactly
        compiled = specialized(loop_program)
        assert "_vdis" in compiled.source
        tri_parity(loop_program, {"n": 30})

    def test_zero_trip_vector_loop(self):
        source = """
program p
  input integer :: n = 0
  integer :: i
  real :: a(100)
  do i = 1, n
    a(i) = real(i) * 1.5
  end do
  print a(1)
end program
"""
        spec = tri_parity(source, {"n": 0})
        assert spec.counters.traps == 0

    def test_trap_inside_vector_loop(self):
        # the hazard prologue sees the final index overrunning the
        # bound and bails before any observable effect; the scalar
        # replay traps at exactly the interpreter's point
        source = """
program p
  input integer :: n = 60
  integer :: i
  real :: a(50)
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
"""
        module = ssa_module(source)
        machine = Machine(_clone(module), {"n": 60})
        with pytest.raises(RangeTrap):
            machine.run()
        compiled = compile_to_specialized(_clone(module))
        with pytest.raises(RangeTrap) as info:
            compiled.run({"n": 60})
        runtime = info.value.runtime
        assert runtime.counters.checks == machine.counters.checks
        assert list(runtime.output) == list(machine.output)

    def test_step_limit_inside_vector_loop(self):
        module = ssa_module(VECTORIZABLE)
        machine = Machine(_clone(module), {"n": 50}, 100)
        with pytest.raises(StepLimitError):
            machine.run()
        compiled = compile_to_specialized(_clone(module))
        with pytest.raises(StepLimitError):
            compiled.run({"n": 50}, max_steps=100)

    def test_division_hazard_falls_back(self):
        # b(i) = c / a(i) with a zero element: the kernel's divisor
        # hazard rejects vector division; the scalar loop raises the
        # interpreter's division-by-zero error
        source = """
program p
  input integer :: n = 10
  integer :: i
  real :: a(20), b(20)
  do i = 1, n
    b(i) = 1.0 / a(i)
  end do
  print b(1)
end program
"""
        module = ssa_module(source)
        machine = Machine(_clone(module), {"n": 10})
        error = None
        try:
            machine.run()
        except InterpError as exc:
            error = exc
        assert error is not None
        compiled = compile_to_specialized(_clone(module))
        with pytest.raises(InterpError) as info:
            compiled.run({"n": 10})
        assert str(info.value) == str(error)

    def test_reduction_loop_vectorizes(self):
        # the accumulator phi is replayed as a sequential fold over the
        # vectorized operands, preserving the scalar association order
        # bit for bit
        source = """
program p
  input integer :: n = 40
  integer :: i
  real :: a(50), b(50), s
  do i = 1, n
    a(i) = real(i) * 0.25
    b(i) = real(i) * 0.5
  end do
  s = 1.0
  do i = 1, n
    s = s + a(i) + b(i) * b(i)
  end do
  print s
end program
"""
        compiled = specialized(source)
        assert "for _j in range(_t):" in compiled.source
        tri_parity(source, {"n": 40})
        tri_parity(source, {"n": 0})

    def test_reduction_subtraction(self):
        source = """
program p
  input integer :: n = 30
  integer :: i
  real :: a(50), s
  do i = 1, n
    a(i) = real(i) * 0.125
  end do
  s = 100.0
  do i = 1, n
    s = s - a(i)
  end do
  print s
end program
"""
        compiled = specialized(source)
        assert "for _j in range(_t):" in compiled.source
        tri_parity(source, {"n": 30})

    def test_multiplicative_accumulator_stays_scalar(self):
        # s = s * a(i) is not a fold the kernel can replay (only
        # left-leaning add/sub keep the association order): the
        # planner bails and the loop runs scalar, still in parity
        source = """
program p
  input integer :: n = 20
  integer :: i
  real :: a(50), s
  do i = 1, n
    a(i) = 1.0 + real(i) * 0.01
  end do
  s = 1.0
  do i = 1, n
    s = s * a(i)
  end do
  print s
end program
"""
        compiled = specialized(source)
        assert "for _j in range(_t):" not in compiled.source
        tri_parity(source, {"n": 20})

    def test_trap_inside_reduction_loop(self):
        # the bounds hazard fires before the fold touches the
        # accumulator; the scalar replay traps at the interpreter's
        # exact point with the partial sum intact
        source = """
program p
  input integer :: n = 60
  integer :: i
  real :: a(50), s
  s = 0.0
  do i = 1, n
    s = s + a(i)
  end do
  print s
end program
"""
        module = ssa_module(source)
        machine = Machine(_clone(module), {"n": 60})
        with pytest.raises(RangeTrap):
            machine.run()
        compiled = compile_to_specialized(_clone(module))
        with pytest.raises(RangeTrap) as info:
            compiled.run({"n": 60})
        runtime = info.value.runtime
        assert runtime.counters.checks == machine.counters.checks
        assert list(runtime.output) == list(machine.output)


class TestFallbacks:
    def test_call_in_loop_is_not_vectorized(self):
        source = """
program p
  input integer :: n = 5
  integer :: i
  real :: a(10)
  do i = 1, n
    call bump(i, a)
  end do
  print a(n)
end program
subroutine bump(i, a)
  integer :: i
  real :: a(10)
  a(i) = real(i)
end subroutine
"""
        compiled = specialized(source)
        assert "_vk" not in compiled.source
        tri_parity(source, {"n": 5})

    def test_int_array_loop_is_not_vectorized(self):
        source = """
program p
  input integer :: n = 8
  integer :: i, k(20)
  do i = 1, n
    k(i) = i * 3
  end do
  print k(n)
end program
"""
        compiled = specialized(source)
        assert "_vk" not in compiled.source
        tri_parity(source, {"n": 8})

    def test_flat_source_has_real_control_flow(self, loop_program):
        compiled = specialized(loop_program)
        assert "while True:" in compiled.source
        # flat emission succeeded: no per-block closure dispatch
        assert "_next = _next()" not in compiled.source


SUBROUTINE_PROGRAM = """
program p
  input integer :: n = 12
  real :: a(20)
  call fill(n, a)
  print a(n)
end program
subroutine fill(n, a)
  integer :: n, i
  real :: a(20)
  do i = 1, n
    a(i) = real(i) * 1.5
  end do
end subroutine
"""


class TestCompileFallbacks:
    """The module is compiled once; a function falls back to the
    threaded emitter when the structurer rejects it or when Python
    cannot compile its flat text."""

    def test_translation_compiles_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return builtins.compile(*args, **kwargs)

        for engine_module in (pybackend, tier2):
            monkeypatch.setattr(engine_module, "compile", counting,
                                raising=False)
        vortex = all_programs()[0]
        assert vortex.name == "vortex"
        module = compile_source(vortex.source,
                                OptimizerOptions(scheme=Scheme.LLS)).module
        assert len(module.functions) > 1
        compile_to_specialized(_clone(module))
        assert calls == ["<repro-pybackend>"]

    def test_flat_text_that_does_not_compile_falls_back(self, monkeypatch):
        emit = tier2._FlatEmitter.emit

        def broken(self):
            text = emit(self)
            if self.function.name == "fill":
                text += "\n    return ("  # unclosed: a SyntaxError
            return text

        monkeypatch.setattr(tier2._FlatEmitter, "emit", broken)
        module = ssa_module(SUBROUTINE_PROGRAM)
        machine = Machine(_clone(module))
        machine.run()
        compiled = compile_to_specialized(_clone(module))
        fill = compiled.module.lookup("fill")
        threaded = pybackend._FunctionEmitter(compiled.module, fill).emit()
        assert threaded in compiled.source
        assert compiled.source.count("_next = _next()") == 1
        assert compiled._namespace["_NUMPY_STORAGE"] is False
        runtime = compiled.run()
        assert runtime.output == machine.output
        for field in BENCH_PARITY_FIELDS:
            assert getattr(runtime.counters, field) == \
                getattr(machine.counters, field), field

    def test_unstructurable_function_falls_back(self):
        # seed 10's main has a loop with two exit targets.  The program
        # traps, and a back-end charges a block's counters on entry, so
        # at the trap they may lead the interpreter's (as the fuzz
        # oracle allows); the output must be equal
        module = ssa_module(generate_program(10))
        machine = Machine(_clone(module))
        with pytest.raises(RangeTrap):
            machine.run()
        compiled = compile_to_specialized(_clone(module))
        main = compiled.module.main
        text, reason = tier2._emit_function(compiled.module, main)
        assert reason.endswith("has several exit targets")
        assert text in compiled.source
        assert compiled._namespace["_NUMPY_STORAGE"] is False
        with pytest.raises(RangeTrap) as info:
            compiled.run()
        runtime = info.value.runtime
        assert runtime.output == machine.output
        assert runtime.counters.traps == machine.counters.traps == 1
        for field in BENCH_PARITY_FIELDS:
            assert getattr(runtime.counters, field) >= \
                getattr(machine.counters, field), field


class TestTrimUnusedBindings:
    def test_array_locals_start_a_word(self):
        text = ("_a0_data[_a1_l0] = v__a2_data + x_a3_s0\n"
                "_a4_base = _a10_h1, __a5_load(_a6_item)")
        assert tier2._array_locals(text) == {
            "_a0_data", "_a1_l0", "_a4_base", "_a10_h1", "_a6_item"}

    def test_unread_fastpath_bindings_are_dropped(self):
        source = """
program p
  input integer :: n = 9
  integer :: i
  real :: a(10), s
  s = 0.0
  do i = 1, n
    s = s + a(i)
  end do
  print s
end program
"""
        compiled = specialized(source)
        # the array is only read: its store accessor is never bound
        assert "_a0_load = " in compiled.source
        assert "_a0_store = " not in compiled.source
        tri_parity(source, {"n": 9})


class TestPipelineEntry:
    def test_run_compiled_engine_dispatch(self, loop_program):
        program = compile_source(loop_program)
        interp = program.run({"n": 9})
        spec = program.run_compiled({"n": 9}, engine="specialized")
        threaded = program.run_compiled({"n": 9})
        assert spec.output == threaded.output == interp.output
        assert spec.counters.checks == interp.counters.checks
        assert spec.counters.instructions == interp.counters.instructions

    def test_cache_keys_are_engine_scoped(self, loop_program):
        from repro.pipeline.cache import BackendCache

        program = compile_source(loop_program)
        cache = BackendCache()
        threaded_key = cache.key(program.module)
        spec_key = cache.key(program.module, "specialized")
        assert threaded_key != spec_key
        assert spec_key.endswith("-sp1")

    def test_cache_round_trips_specialized_module(self, loop_program,
                                                  tmp_path):
        from repro.backend.specialized import CompiledSpecializedModule
        from repro.pipeline.cache import BackendCache

        program = compile_source(loop_program)
        warm = BackendCache(disk_dir=str(tmp_path))
        first = warm.compiled(program.module, engine="specialized")
        assert isinstance(first, CompiledSpecializedModule)
        cold = BackendCache(disk_dir=str(tmp_path))
        second = cold.compiled(program.module, engine="specialized")
        assert isinstance(second, CompiledSpecializedModule)
        assert cold.disk_hits == 1
        assert second.source == first.source
        runtime = second.run({"n": 7})
        interp = program.run({"n": 7})
        assert runtime.output == interp.output
