"""Suite runner: produces the data behind Tables 1, 2, and 3.

Each public function returns plain data structures (dicts keyed by
program and configuration) that :mod:`repro.reporting.tables` renders
in the paper's layout.

All three runners share one :class:`~repro.pipeline.cache.FrontendCache`
(the process-wide one unless an explicit cache is passed), so a full
``tables`` run pays the parse+lower+SSA frontend exactly once per
program instead of once per configuration (~19x).  ``run_table2`` and
``run_table3`` also accept precomputed baselines so the naive-checking
execution is shared as well; :func:`repro.benchsuite.parallel.run_program`
calls all three for one program, with a task-private cache, so that
programs can fan out across a process pool.
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


#: counter fields that must agree between engines (perfbench's
#: correctness gate and ``tests/benchsuite/test_parity.py`` assert
#: them).  ``phis`` is deliberately excluded: the interpreter charges
#: one phi move per phi on block entry while the back-end charges the
#: two copies SSA destruction inserts per phi, so the field
#: legitimately differs (ratio 1:2) without affecting instruction or
#: check parity.
BENCH_PARITY_FIELDS: Tuple[str, ...] = (
    "instructions", "checks", "guarded_checks", "guard_skipped",
    "spec_guards", "spec_misses", "traps")


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
