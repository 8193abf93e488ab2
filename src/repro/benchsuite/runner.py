"""Suite runner: produces the data behind Tables 1, 2, and 3.

Each public function returns plain data structures (dicts keyed by
program and configuration) that :mod:`repro.reporting.tables` renders
in the paper's layout, and that the benchmark harness asserts shape
properties on.

All three runners share one :class:`~repro.pipeline.cache.FrontendCache`
(the process-wide one unless an explicit cache is passed), so a full
``tables`` run pays the parse+lower+SSA frontend exactly once per
program instead of once per configuration (~19x).  ``run_table2`` and
``run_table3`` also accept precomputed baselines so the naive-checking
execution is shared as well; :mod:`repro.benchsuite.parallel` builds
on that to fan programs out across a process pool.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..checks.config import CheckKind, ImplicationMode, OptimizerOptions, Scheme
from ..pipeline.cache import FrontendCache, shared_cache
from ..pipeline.stats import (BaselineMeasurement, SchemeMeasurement,
                              measure_baseline, measure_scheme)
from .registry import BenchmarkProgram, all_programs

# Table 2 runs the seven paper schemes plus the speculative
# loop-versioning and profile-guided lospre extensions for both check
# kinds.  LO self-trains its edge profile (under LLS, same inputs)
# inside measure_scheme unless the caller turns profiles off.
TABLE2_SCHEMES: Tuple[Scheme, ...] = (
    Scheme.NI, Scheme.CS, Scheme.LNI, Scheme.SE,
    Scheme.LI, Scheme.LLS, Scheme.ALL, Scheme.SPEC, Scheme.LO,
)

# Table 3 compares implication modes on NI, SE, and LLS.
TABLE3_ROWS: Tuple[Tuple[Scheme, ImplicationMode], ...] = (
    (Scheme.NI, ImplicationMode.ALL),
    (Scheme.NI, ImplicationMode.NONE),
    (Scheme.SE, ImplicationMode.ALL),
    (Scheme.SE, ImplicationMode.NONE),
    (Scheme.LLS, ImplicationMode.ALL),
    (Scheme.LLS, ImplicationMode.CROSS_FAMILY),
)


def _resolve_cache(cache: Optional[FrontendCache]) -> FrontendCache:
    return cache if cache is not None else shared_cache()


def _baseline_for(program: BenchmarkProgram,
                  inputs: Mapping[str, int],
                  baselines: Optional[Mapping[str, BaselineMeasurement]],
                  cache: FrontendCache,
                  engine: str = "interp") -> BaselineMeasurement:
    if baselines is not None and program.name in baselines:
        return baselines[program.name]
    return measure_baseline(program.name, program.source, inputs,
                            engine=engine, cache=cache)


def run_table1(programs: Optional[Iterable[BenchmarkProgram]] = None,
               small: bool = False,
               cache: Optional[FrontendCache] = None,
               engine: str = "interp") -> List[BaselineMeasurement]:
    """Program characteristics (Table 1) for the whole suite."""
    cache = _resolve_cache(cache)
    rows = []
    for program in programs or all_programs():
        inputs = program.test_inputs if small else program.inputs
        rows.append(measure_baseline(program.name, program.source, inputs,
                                     engine=engine, cache=cache))
    return rows


def run_table2(programs: Optional[Iterable[BenchmarkProgram]] = None,
               kinds: Tuple[CheckKind, ...] = (CheckKind.PRX, CheckKind.INX),
               schemes: Tuple[Scheme, ...] = TABLE2_SCHEMES,
               small: bool = False,
               cache: Optional[FrontendCache] = None,
               baselines: Optional[Mapping[str, BaselineMeasurement]] = None,
               engine: str = "interp",
               profile_mode: str = "auto"
               ) -> Dict[Tuple[str, str], SchemeMeasurement]:
    """Percent of checks eliminated per (kind-scheme, program)."""
    cache = _resolve_cache(cache)
    results: Dict[Tuple[str, str], SchemeMeasurement] = {}
    for program in programs or all_programs():
        inputs = program.test_inputs if small else program.inputs
        baseline = _baseline_for(program, inputs, baselines, cache, engine)
        for kind in kinds:
            for scheme in schemes:
                options = OptimizerOptions(scheme=scheme, kind=kind)
                cell = measure_scheme(program.name, program.source, options,
                                      baseline.dynamic_checks, inputs,
                                      engine=engine, cache=cache,
                                      profile_mode=profile_mode)
                results[(options.label(), program.name)] = cell
    return results


BENCH_ENGINES: Tuple[str, ...] = ("interp", "compiled", "specialized")

#: counter fields that must agree between engines.  ``phis`` is
#: deliberately excluded: the interpreter charges one phi move per phi
#: on block entry while the back-end charges the two copies SSA
#: destruction inserts per phi, so the field legitimately differs
#: (ratio 1:2) without affecting instruction or check parity.
BENCH_PARITY_FIELDS: Tuple[str, ...] = (
    "instructions", "checks", "guarded_checks", "guard_skipped",
    "spec_guards", "spec_misses", "traps")


class EngineRun:
    """Wall-clock and dynamic counts for one engine on one program."""

    def __init__(self, engine: str) -> None:
        self.engine = engine
        #: best-of-``repeats`` execution wall clock (seconds); excludes
        #: back-end translation, reported in ``translate_seconds``
        self.seconds = 0.0
        #: every repeat's wall clock, in run order
        self.runs: List[float] = []
        #: one-time IR -> Python translation cost (0.0 for interp)
        self.translate_seconds = 0.0
        self.counters: Dict[str, int] = {}
        self.output: List[float] = []


class BenchProgramResult:
    """Engine comparison for one benchmark program."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.engines: Dict[str, EngineRun] = {}
        self.counts_match = True
        self.output_match = True
        #: parity fields whose values diverged between engines
        self.mismatches: List[str] = []

    @property
    def speedup(self) -> float:
        """Interpreter seconds / compiled seconds (0 when undefined)."""
        interp = self.engines.get("interp")
        compiled = self.engines.get("compiled")
        if interp is None or compiled is None or compiled.seconds <= 0.0:
            return 0.0
        return interp.seconds / compiled.seconds

    @property
    def speedup_specialized(self) -> float:
        """Interpreter seconds / specialized seconds (0 when undefined)."""
        interp = self.engines.get("interp")
        spec = self.engines.get("specialized")
        if interp is None or spec is None or spec.seconds <= 0.0:
            return 0.0
        return interp.seconds / spec.seconds

    @property
    def speedup_vs_compiled(self) -> float:
        """Threaded seconds / specialized seconds (0 when undefined)."""
        compiled = self.engines.get("compiled")
        spec = self.engines.get("specialized")
        if compiled is None or spec is None or spec.seconds <= 0.0:
            return 0.0
        return compiled.seconds / spec.seconds


class BenchResult:
    """Everything one ``repro bench`` run produced."""

    def __init__(self, config_label: str, small: bool,
                 repeats: int, engines: Tuple[str, ...]) -> None:
        self.config_label = config_label
        self.small = small
        self.repeats = repeats
        self.engines = engines
        self.programs: List[BenchProgramResult] = []

    def counts_ok(self) -> bool:
        """True when every program's dynamic counts (and output) agree
        across engines."""
        return all(p.counts_match and p.output_match for p in self.programs)

    def total_seconds(self, engine: str) -> float:
        return sum(p.engines[engine].seconds
                   for p in self.programs if engine in p.engines)

    @property
    def speedup(self) -> float:
        interp = self.total_seconds("interp")
        compiled = self.total_seconds("compiled")
        if compiled <= 0.0:
            return 0.0
        return interp / compiled

    @property
    def speedup_specialized(self) -> float:
        interp = self.total_seconds("interp")
        spec = self.total_seconds("specialized")
        if spec <= 0.0:
            return 0.0
        return interp / spec

    @property
    def speedup_vs_compiled(self) -> float:
        compiled = self.total_seconds("compiled")
        spec = self.total_seconds("specialized")
        if spec <= 0.0:
            return 0.0
        return compiled / spec


def _time_engine(program, engine: str, inputs, max_steps: int,
                 repeats: int, backend_cache) -> EngineRun:
    """Run one engine ``repeats`` times; counters come from the last
    run (they are deterministic, so any run would do)."""
    import gc
    import time

    run = EngineRun(engine)
    if engine != "interp":
        # translate once, outside the timed repeats — the cache makes
        # repeated executions reuse the compiled module, mirroring how
        # a compiled binary is built once and run many times
        start = time.perf_counter()
        program.run_compiled(inputs, max_steps=max_steps,
                             backend_cache=backend_cache, engine=engine)
        run.translate_seconds = time.perf_counter() - start
    # drain garbage left by earlier engines (an interpreter run churns
    # millions of objects) and keep the collector out of the timed
    # window, so sub-millisecond repeats measure the engine, not a
    # collection triggered by a previous engine's allocations
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            if engine == "interp":
                machine = program.run(inputs, max_steps=max_steps)
            else:
                machine = program.run_compiled(inputs, max_steps=max_steps,
                                               backend_cache=backend_cache,
                                               engine=engine)
            run.runs.append(time.perf_counter() - start)
            run.counters = machine.counters.snapshot()
            run.output = list(machine.output)
    finally:
        if gc_was_enabled:
            gc.enable()
    run.seconds = min(run.runs) if run.runs else 0.0
    return run


def run_bench(programs: Optional[Iterable[BenchmarkProgram]] = None,
              engines: Tuple[str, ...] = BENCH_ENGINES,
              small: bool = False,
              repeats: int = 3,
              options: Optional[OptimizerOptions] = None,
              max_steps: int = 50_000_000,
              cache: Optional[FrontendCache] = None,
              backend_cache=None,
              profile_mode: str = "auto") -> BenchResult:
    """Engine comparison mode: wall-clock per program per engine.

    Each program is compiled once (under ``options``, default LLS/PRX)
    and then executed ``repeats`` times per engine; the best repeat is
    the reported wall clock.  When the interpreter runs alongside a
    back-end engine, every :data:`BENCH_PARITY_FIELDS` counter and the
    printed output are asserted identical — a divergence marks the
    program's ``counts_match``/``output_match`` flags and the overall
    :meth:`BenchResult.counts_ok` false.  Divergences in the
    specialized engine are labeled ``specialized:<field>``; plain
    field names refer to the direct-threaded engine.
    """
    from ..pipeline.driver import compile_source
    from ..pipeline.profile import with_profile

    if backend_cache is None:
        from ..pipeline.cache import shared_backend_cache

        backend_cache = shared_backend_cache()
    cache = _resolve_cache(cache)
    options = options or OptimizerOptions()
    result = BenchResult(options.label(), small, repeats, tuple(engines))
    for program in programs or all_programs():
        inputs = program.test_inputs if small else program.inputs
        program_options = with_profile(options, program.source, inputs,
                                       profile_mode, max_steps, cache)
        compiled = compile_source(program.source, program_options,
                                  cache=cache)
        row = BenchProgramResult(program.name)
        # interleave the engines' timed repeats in rounds: a localized
        # machine-load spike then lands in every engine's sample set
        # instead of inflating whichever engine happened to be timed
        # during it, so the best-of ratios stay comparable
        rounds = min(repeats, 5) or 1
        for rnd in range(rounds):
            share = repeats // rounds + (1 if rnd < repeats % rounds else 0)
            if share == 0:
                continue
            for engine in engines:
                run = _time_engine(compiled, engine, inputs, max_steps,
                                   share, backend_cache)
                prior = row.engines.get(engine)
                if prior is None:
                    row.engines[engine] = run
                else:
                    prior.runs.extend(run.runs)
                    prior.seconds = min(prior.runs)
                    prior.counters = run.counters
                    prior.output = run.output
        if "interp" in row.engines:
            interp = row.engines["interp"]
            for other_name in ("compiled", "specialized"):
                other = row.engines.get(other_name)
                if other is None:
                    continue
                prefix = "" if other_name == "compiled" \
                    else other_name + ":"
                row.mismatches.extend(
                    prefix + field for field in BENCH_PARITY_FIELDS
                    if interp.counters.get(field) !=
                    other.counters.get(field))
                if interp.output != other.output:
                    row.output_match = False
            row.counts_match = not row.mismatches
        result.programs.append(row)
    return result


def run_table3(programs: Optional[Iterable[BenchmarkProgram]] = None,
               kinds: Tuple[CheckKind, ...] = (CheckKind.PRX, CheckKind.INX),
               rows: Tuple[Tuple[Scheme, ImplicationMode], ...] = TABLE3_ROWS,
               small: bool = False,
               cache: Optional[FrontendCache] = None,
               baselines: Optional[Mapping[str, BaselineMeasurement]] = None,
               engine: str = "interp"
               ) -> Dict[Tuple[str, str], SchemeMeasurement]:
    """The implication-mode ablation (Table 3)."""
    cache = _resolve_cache(cache)
    results: Dict[Tuple[str, str], SchemeMeasurement] = {}
    for program in programs or all_programs():
        inputs = program.test_inputs if small else program.inputs
        baseline = _baseline_for(program, inputs, baselines, cache, engine)
        for kind in kinds:
            for scheme, mode in rows:
                options = OptimizerOptions(scheme=scheme, kind=kind,
                                           implication=mode)
                cell = measure_scheme(program.name, program.source, options,
                                      baseline.dynamic_checks, inputs,
                                      engine=engine, cache=cache)
                results[(options.label(), program.name)] = cell
    return results
