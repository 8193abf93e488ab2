"""Measurement helpers for the paper's experiments.

Table 1 needs per-program static/dynamic instruction and check counts;
Tables 2 and 3 need the percentage of dynamic checks each optimizer
configuration eliminates, plus the compile time spent in the range
check optimizer.  These helpers compile and execute one program under
one configuration and collect exactly those numbers.

They compile through :func:`~repro.pipeline.driver.compile_source` and
run every engine through
:meth:`~repro.pipeline.driver.CompiledProgram.execute`, like every
other caller.
Both measurement entry points accept an optional
:class:`~repro.pipeline.cache.FrontendCache`; when given, the
parse+lower+SSA prefix is shared (one compile per program) and each
measurement carries a :class:`~repro.pipeline.trace.PipelineTrace`
with per-pass timings.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Union

from ..analysis.loops import LoopForest
from ..checks.config import OptimizerOptions
from ..checks.optimizer import count_checks
from ..ir.function import Module
from ..ir.instructions import Check
from .cache import FrontendCache
from .driver import CompiledProgram, compile_source
from .profile import with_profile
from .trace import PipelineTrace

Number = Union[int, float]


class BaselineMeasurement:
    """One row of Table 1: program characteristics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines = 0
        self.subroutines = 0
        self.loops = 0
        self.static_instructions = 0
        self.dynamic_instructions = 0
        self.static_checks = 0
        self.dynamic_checks = 0
        self.trace = PipelineTrace()

    @property
    def static_ratio(self) -> float:
        """Static checks per non-check instruction (percent)."""
        if self.static_instructions == 0:
            return 0.0
        return 100.0 * self.static_checks / self.static_instructions

    @property
    def dynamic_ratio(self) -> float:
        """Dynamic checks per non-check instruction (percent)."""
        if self.dynamic_instructions == 0:
            return 0.0
        return 100.0 * self.dynamic_checks / self.dynamic_instructions

    def __repr__(self) -> str:
        return ("BaselineMeasurement(%s: %d/%d static, %d/%d dynamic)"
                % (self.name, self.static_checks, self.static_instructions,
                   self.dynamic_checks, self.dynamic_instructions))


class SchemeMeasurement:
    """One cell of Table 2/3: a configuration on a program."""

    def __init__(self, name: str, label: str) -> None:
        self.name = name
        self.label = label
        self.dynamic_checks = 0
        self.baseline_checks = 0
        self.static_checks = 0
        self.optimize_seconds = 0.0
        self.compile_seconds = 0.0
        self.trace = PipelineTrace()

    @property
    def percent_eliminated(self) -> float:
        """Percentage of dynamic checks removed vs naive checking."""
        if self.baseline_checks == 0:
            return 0.0
        return 100.0 * (1.0 - self.dynamic_checks / self.baseline_checks)

    def __repr__(self) -> str:
        return "SchemeMeasurement(%s %s: %.2f%%)" % (
            self.name, self.label, self.percent_eliminated)


def count_static(module: Module):
    """(non-check instruction cost, checks, natural loops) in a module.

    Instruction cost matches the interpreter's dynamic weighting: a
    Load/Store costs ``1 + rank`` (the access plus its addressing
    arithmetic); everything else costs 1.
    """
    from ..ir.instructions import Load, Store

    instructions = 0
    checks = 0
    loops = 0
    for function in module:
        for inst in function.instructions():
            if isinstance(inst, Check):
                checks += 1
            elif isinstance(inst, (Load, Store)):
                instructions += 1 + len(inst.indices)
            else:
                instructions += 1
        loops += len(LoopForest(function).loops)
    return instructions, checks, loops


def _counters(program: CompiledProgram,
              inputs: Optional[Mapping[str, Number]], max_steps: int,
              engine: str):
    """Run on ``engine`` and return the counters; a trap propagates."""
    execution = program.execute(inputs, engine, max_steps)
    if execution.trap is not None:
        raise execution.trap
    return execution.counters


def measure_baseline(name: str, source: str,
                     inputs: Optional[Mapping[str, Number]] = None,
                     max_steps: int = 50_000_000,
                     engine: str = "interp",
                     cache: Optional[FrontendCache] = None
                     ) -> BaselineMeasurement:
    """Compile without optimization, run, and fill a Table 1 row."""
    row = BaselineMeasurement(name)
    row.lines = sum(1 for line in source.splitlines() if line.strip())
    program = compile_source(source, optimize=False, trace=row.trace,
                             cache=cache)
    module = program.module
    row.subroutines = sum(1 for f in module if not f.is_main)
    instructions, checks, loops = count_static(module)
    row.static_instructions = instructions
    row.static_checks = checks
    row.loops = loops
    counters = _counters(program, inputs, max_steps, engine)
    row.dynamic_instructions = counters.instructions
    row.dynamic_checks = counters.checks
    return row


def measure_scheme(name: str, source: str, options: OptimizerOptions,
                   baseline_checks: int,
                   inputs: Optional[Mapping[str, Number]] = None,
                   max_steps: int = 50_000_000,
                   engine: str = "interp",
                   cache: Optional[FrontendCache] = None,
                   profile_mode: str = "auto") -> SchemeMeasurement:
    """Compile under ``options``, run, and fill a Table 2/3 cell.

    The profile-guided ``LO`` scheme self-trains by default
    (``profile_mode="auto"``, see
    :func:`~repro.pipeline.profile.with_profile`): with no profile
    attached to ``options``, a training run under LLS on the same
    inputs collects edge counts first — recorded as a ``train-profile``
    trace event and excluded from the optimize/compile timings so
    scheme compile times stay comparable.  ``profile_mode="off"`` skips
    training, so LO degrades to its uniform-cost (LCM-latest)
    placement.
    """
    cell = SchemeMeasurement(name, options.label())
    cell.baseline_checks = baseline_checks

    train_start = time.perf_counter()
    trained = with_profile(options, source, inputs, profile_mode,
                           max_steps, cache)
    if trained is not options:
        cell.trace.record("train-profile",
                          time.perf_counter() - train_start)

    compile_start = time.perf_counter()
    program = compile_source(source, trained, trace=cell.trace,
                             cache=cache)
    cell.compile_seconds = time.perf_counter() - compile_start
    cell.optimize_seconds = cell.trace.seconds("check-optimize")
    cell.static_checks = sum(count_checks(f) for f in program.module)
    cell.dynamic_checks = _counters(program, inputs, max_steps,
                                    engine).checks
    return cell


def verify_same_output(source: str, options: OptimizerOptions,
                       inputs: Optional[Mapping[str, Number]] = None,
                       max_steps: int = 50_000_000) -> bool:
    """True when the optimized program prints what the baseline prints."""
    baseline = compile_source(source, optimize=False).run(inputs,
                                                          max_steps)
    optimized = compile_source(source, options).run(inputs, max_steps)
    return baseline.output == optimized.output
