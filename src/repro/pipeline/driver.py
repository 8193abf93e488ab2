"""End-to-end compilation pipeline.

``compile_source`` takes mini-Fortran text through one fixed pass
pipeline: parse -> lower (with naive range checks) -> [inline] ->
[rotate] -> SSA -> range-check optimization, and returns a
:class:`CompiledProgram` that can be executed with dynamic counting.
This is the Python counterpart of the paper's
Nascent-plus-instrumented-C-backend toolchain.

Each pass records a :class:`~repro.pipeline.trace.PassEvent` (wall
time, IR size delta, optimizer counters) into a
:class:`~repro.pipeline.trace.PipelineTrace`.  The frontend prefix
(parse+lower+inline+rotate+SSA) is pure with respect to the optimizer
configuration, so the measurement harness shares it across the ~19
configurations of one benchmark via
:class:`~repro.pipeline.cache.FrontendCache`.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Mapping, Optional, Union

from ..checks.config import OptimizerOptions
from ..checks.optimizer import OptimizeStats, optimize_module
from ..errors import RangeTrap
from ..frontend.parser import parse_source
from ..interp.machine import Machine
from ..ir.function import Module
from ..ir.lowering import lower_source_file
from ..ssa.construct import construct_ssa
from .trace import PipelineTrace

Number = Union[int, float]

#: The execution engines: the interpreter, then the two back-end tiers
#: (direct-threaded and specialized).
ENGINE_NAMES = ("interp", "compiled", "specialized")


def module_size(module: Optional[Module]) -> int:
    """Static instruction count of a module (0 for ``None``)."""
    if module is None:
        return 0
    return sum(1 for function in module for _ in function.instructions())


def _verify_after(module: Module, pass_name: str) -> None:
    """Run the IR verifier, attributing failures to ``pass_name``."""
    from ..errors import IRError
    from ..ir.verify import verify_module

    try:
        verify_module(module)
    except IRError as exc:
        raise IRError("after pass %r: %s" % (pass_name, exc)) from exc


def run_frontend(source: str, rotate_loops: bool = False,
                 trace: Optional[PipelineTrace] = None,
                 verify_ir: bool = False,
                 inline: bool = False) -> Module:
    """The configuration-independent frontend prefix of the pipeline.

    Runs parse -> lower -> [inline] -> [rotate] -> SSA and records one
    trace event per pass.  The returned module has naive checks and no
    optimization applied; it is the artifact
    :class:`~repro.pipeline.cache.FrontendCache` memoizes.  With
    ``verify_ir`` the verifier runs after every pass, attributing any
    malformed IR to the pass that produced it.  ``inline=True`` clones
    eligible subroutine bodies into their callers before SSA, so the
    check optimizer later sees cross-call redundancy as ordinary
    intra-procedural redundancy.
    """
    trace = trace if trace is not None else PipelineTrace()

    start = time.perf_counter()
    tree = parse_source(source)
    trace.record("parse", time.perf_counter() - start)

    start = time.perf_counter()
    module = lower_source_file(tree)
    trace.record("lower", time.perf_counter() - start,
                 size_after=module_size(module))
    if verify_ir:
        _verify_after(module, "lower")

    if inline:
        from ..checks.inline import inline_module

        with trace.timed("inline", module_size(module)) as event:
            stats = inline_module(module)
            event.size_after = module_size(module)
            event.counters = stats.as_dict()
        if verify_ir:
            _verify_after(module, "inline")

    if rotate_loops:
        from ..ir.rotate import rotate_module

        with trace.timed("rotate", module_size(module)) as event:
            rotate_module(module)
            event.size_after = module_size(module)
        if verify_ir:
            _verify_after(module, "rotate")

    with trace.timed("ssa", module_size(module)) as event:
        for function in module:
            construct_ssa(function)
        event.size_after = module_size(module)
    if verify_ir:
        _verify_after(module, "ssa")
    return module


def _run_check_optimizer(module: Module, options: OptimizerOptions,
                         trace: PipelineTrace) -> Dict[str, OptimizeStats]:
    with trace.timed("check-optimize", module_size(module)) as event:
        stats = optimize_module(module, options)
        event.size_after = module_size(module)
        event.counters = {
            "checks_before": sum(s.checks_before for s in stats.values()),
            "checks_after": sum(s.checks_after for s in stats.values()),
            "inserted": sum(s.inserted for s in stats.values()),
            "eliminated": sum(s.eliminated for s in stats.values()),
            "proved": sum(s.proved for s in stats.values()),
            "compile_time": sum(s.compile_time for s in stats.values()),
        }
    return stats


def translate(module: Module, engine: str = "compiled"):
    """Destruct and translate a private clone of ``module``.

    ``engine`` selects the back-end tier: ``"compiled"``
    (direct-threaded) or ``"specialized"`` (flat source + vectorized
    affine loops).  ``module`` itself is never mutated.
    """
    from ..backend.pybackend import compile_to_python
    from ..backend.specialized import compile_to_specialized
    from ..ssa.destruct import destruct_ssa

    # a pickle round trip clones this IR ~5x faster than a deep copy
    clone = pickle.loads(pickle.dumps(module, pickle.HIGHEST_PROTOCOL))
    if engine == "specialized":
        # Plans loops on the SSA form, then destructs in place.
        return compile_to_specialized(clone)
    for function in clone:
        if any(block.phis() for block in function.blocks):
            destruct_ssa(function)
    return compile_to_python(clone)


class CompiledProgram:
    """A compiled (and possibly optimized) module, ready to execute.

    ``run`` interprets ``self.module`` directly; ``run_compiled``
    translates through the Python back-end.  The back-end consumes
    non-SSA IR, so ``run_compiled`` destructs SSA on a private copy of
    the module — ``self.module`` is never mutated by execution, and
    ``run``/``run_compiled`` may be called in any order (and
    interleaved) with identical results.
    """

    def __init__(self, module: Module,
                 optimize_stats: Optional[Dict[str, OptimizeStats]] = None,
                 trace: Optional[PipelineTrace] = None,
                 options: Optional[OptimizerOptions] = None) -> None:
        self.module = module
        self.optimize_stats = optimize_stats or {}
        self.trace = trace if trace is not None else PipelineTrace()
        self.options = options
        self._python_modules = {}

    def run(self, inputs: Optional[Mapping[str, Number]] = None,
            max_steps: int = 50_000_000,
            collect_edges: bool = False) -> Machine:
        """Execute the program; returns the machine (counters, output).

        ``collect_edges=True`` additionally records per-edge execution
        counts on ``machine.counters.edges`` (profile training).  The
        interpreter is the only engine that records them.
        """
        machine = Machine(self.module, inputs, max_steps,
                          collect_edges=collect_edges)
        machine.run()
        return machine

    def run_compiled(self, inputs: Optional[Mapping[str, Number]] = None,
                     max_steps: int = 50_000_000,
                     backend_cache: Optional["BackendCache"] = None,
                     engine: str = "compiled"):
        """Execute via a back-end engine (the paper's instrumented-C
        methodology; ~10x faster than interpretation).

        ``engine`` selects the tier: ``"compiled"`` (direct-threaded,
        the default) or ``"specialized"`` (flat source with
        NumPy-vectorized affine loops); any other name is a
        ``ValueError``.  SSA is destructed on a private copy of the
        module, so ``self.module`` is never mutated; phi copies are
        charged to the ``phis`` counter, so check counts, instruction
        counts, and outputs are identical to :meth:`run`, and calling
        the two in either order gives the same numbers.  Both engines
        enforce the same ``max_steps`` fuel and call-depth limits as
        the interpreter, raising the same typed errors.

        Translation goes through a
        :class:`~repro.pipeline.cache.BackendCache` (the process-wide
        shared one unless ``backend_cache`` is given), recording a
        ``backend`` trace event; repeated executions reuse the
        per-engine memoized translated module.  Returns the back-end
        runtime (``.counters``, ``.output``).
        """
        compiled = self._python_modules.get(engine)
        if compiled is None:
            if backend_cache is None:
                from ..pipeline.cache import shared_backend_cache

                backend_cache = shared_backend_cache()
            profile = getattr(self.options, "profile", None)
            compiled = backend_cache.compiled(
                self.module, trace=self.trace, engine=engine,
                profile_fingerprint=(profile.fingerprint
                                     if profile is not None else None))
            self._python_modules[engine] = compiled
        return compiled.run(inputs, max_steps=max_steps)

    def execute(self, inputs: Optional[Mapping[str, Number]] = None,
                engine: str = "interp", max_steps: int = 50_000_000,
                collect_edges: bool = False) -> "Execution":
        """Run on ``engine`` (:meth:`run` for ``"interp"``, else
        :meth:`run_compiled`) inside an ``execute`` trace event.

        A :class:`~repro.errors.RangeTrap` does not propagate: the
        execution carries it, with the counters and output the program
        produced before the trap.  An engine name outside
        :data:`ENGINE_NAMES`, or ``collect_edges`` on a back-end
        engine, is a ``ValueError``.
        """
        if engine not in ENGINE_NAMES:
            raise ValueError("unknown engine %r (choose from %s)"
                             % (engine, ", ".join(ENGINE_NAMES)))
        if collect_edges and engine != "interp":
            raise ValueError("edge profiles are recorded by the "
                             "interpreter only, not by engine %r"
                             % engine)
        trap = None
        with self.trace.timed("execute") as event:
            try:
                if engine == "interp":
                    runtime = self.run(inputs, max_steps=max_steps,
                                       collect_edges=collect_edges)
                else:
                    runtime = self.run_compiled(
                        inputs, max_steps=max_steps, engine=engine)
            except RangeTrap as error:
                trap = error
                runtime = getattr(error, "runtime", None)
            event.counters = {"engine": engine}
        return Execution(self, engine, runtime, trap)

    def total_stats(self) -> OptimizeStats:
        """Module-wide optimizer stats."""
        total = OptimizeStats("<module>")
        for stats in self.optimize_stats.values():
            total.merge(stats)
        return total


class Execution:
    """One :meth:`CompiledProgram.execute`: the runtime's counters
    (None if a trap left none) and output, and the trap if one fired."""

    __slots__ = ("program", "engine", "counters", "output", "trap")

    def __init__(self, program: CompiledProgram, engine: str, runtime,
                 trap: Optional[RangeTrap]) -> None:
        self.program = program
        self.engine = engine
        self.counters = getattr(runtime, "counters", None)
        self.output = list(getattr(runtime, "output", None) or [])
        self.trap = trap


def compile_source(source: str,
                   options: Optional[OptimizerOptions] = None,
                   optimize: bool = True,
                   rotate_loops: bool = False,
                   trace: Optional[PipelineTrace] = None,
                   cache: Optional["FrontendCache"] = None,
                   verify_ir: bool = False
                   ) -> CompiledProgram:
    """Compile mini-Fortran source text.

    * ``optimize=False`` keeps naive checking (the baseline check
      counts of Table 1);
    * ``rotate_loops=True`` applies the loop-rotation transform the
      paper suggests as an enabler for safe-earliest placement (it
      disables counted-loop recognition, so use it with SE/LNI);
    * ``trace`` collects per-pass events (a fresh
      :class:`PipelineTrace` is created when omitted; it is exposed as
      ``CompiledProgram.trace``);
    * ``cache`` is an optional
      :class:`~repro.pipeline.cache.FrontendCache`; when given the
      frontend prefix is fetched from it — the module a miss built, or
      a private copy on a hit — instead of re-running parse/lower/SSA;
    * ``verify_ir=True`` runs the IR verifier after every pass and
      raises :class:`~repro.errors.IRError` naming the offending pass;
    * otherwise the checks are optimized under ``options``.

    Inlining is an ``options`` axis (``OptimizerOptions.inline``), not
    a separate parameter: it changes which checks exist, so it belongs
    to the configuration identity (labels, cache keys) like the
    scheme/kind/implication axes.
    """
    trace = trace if trace is not None else PipelineTrace()
    inline = options is not None and options.inline
    if cache is not None:
        module = cache.frontend(source, rotate_loops=rotate_loops,
                                trace=trace, inline=inline)
        if verify_ir:
            _verify_after(module, "frontend(cached)")
    else:
        module = run_frontend(source, rotate_loops=rotate_loops,
                              trace=trace, verify_ir=verify_ir,
                              inline=inline)
    if not optimize:
        return CompiledProgram(module, trace=trace)
    options = options or OptimizerOptions()
    if options.profile is not None:
        # A stale or foreign training profile must fail loudly before
        # it silently degrades placement: the artifact records the
        # source digest and configuration it was trained under.
        options.profile.validate_for(source, options.kind.value,
                                     options.implication.value)
    stats = _run_check_optimizer(module, options, trace)
    if verify_ir:
        _verify_after(module, "check-optimize")
    return CompiledProgram(module, stats, trace=trace, options=options)
