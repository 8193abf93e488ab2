"""Parallel, cache-aware execution of the benchmark suite.

``repro tables``/``compare`` evaluate an embarrassingly parallel grid:
every benchmark program is independent of every other, and within one
program every optimizer configuration starts from the same frontend
module.  :func:`run_suite` therefore fans out *per program* over a
``concurrent.futures`` process pool — each worker task compiles the
frontend once (through a private :class:`FrontendCache`), measures the
Table 1 baseline, and then every Table 2/3 cell against it.

Determinism: tasks are submitted and collected in registry order, so
results (and the rendered tables) are byte-identical for any ``--jobs``
value.  Robustness: any pool-level failure (fork limits, pickling,
broken workers) falls back to running all of the work serially in
this process.  :func:`run_pooled` is that pool; ``repro compare`` and
the fuzz campaign runner use it too.
"""

from __future__ import annotations

import os
import sys
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

from ..checks.config import CheckKind, OptimizerOptions, Scheme
from ..pipeline.cache import CACHE_DIR_ENV, FrontendCache
from ..pipeline.stats import (BaselineMeasurement, SchemeMeasurement,
                              measure_scheme)
from .registry import BenchmarkProgram, all_programs, get_program
from .runner import run_table1, run_table2, run_table3

Cells = Dict[Tuple[str, str], SchemeMeasurement]
T = TypeVar("T")


def run_pooled(task: Callable[..., T], argsets: Sequence[tuple],
               jobs: int) -> Tuple[List[T], bool]:
    """``[task(*args) for args in argsets]``, ``jobs`` tasks at a time.

    With ``jobs > 1`` and more than one task, the tasks run in a
    process pool (so ``task`` must be module-level to pickle) and come
    back in ``argsets`` order.  Any pool failure reruns every task
    serially in this process, with a note on stderr.  The flag says
    whether the pool produced the results.
    """
    if jobs > 1 and len(argsets) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(task, *args) for args in argsets]
                return [future.result() for future in futures], True
        except Exception as error:  # pool machinery, not the task
            print("warning: process pool failed (%s: %s); "
                  "falling back to serial execution"
                  % (type(error).__name__, error), file=sys.stderr)
    return [task(*args) for args in argsets], False


class SuiteResult:
    """Everything one ``tables`` run produced, in registry order."""

    def __init__(self, names: List[str], rows: List[BaselineMeasurement],
                 table2: Cells, table3: Cells,
                 cache_stats: Dict[str, Dict[str, int]],
                 jobs: int = 1, parallel: bool = False,
                 engine: str = "interp") -> None:
        self.names = names
        self.rows = rows
        self.table2 = table2
        self.table3 = table3
        #: per-program FrontendCache counter snapshots
        self.cache_stats = cache_stats
        self.jobs = jobs
        #: whether the process pool was actually used (False after a
        #: serial fallback)
        self.parallel = parallel
        #: execution engine every measurement ran under
        self.engine = engine

    def frontend_compiles(self) -> int:
        """Total frontend runs across the suite — equals the number of
        programs when the cache did its job."""
        return sum(stats.get("frontend_compiles", 0)
                   for stats in self.cache_stats.values())


ProgramResult = Tuple[BaselineMeasurement, Cells, Cells, Dict[str, int]]


def run_program(name: str, small: bool = False,
                engine: str = "interp",
                profile_mode: str = "auto") -> ProgramResult:
    """Measure one program under every table configuration.

    This is the process-pool task: module-level so it pickles, keyed
    by program name so only small strings cross the process boundary.
    A task-private :class:`FrontendCache` guarantees the frontend runs
    exactly once regardless of which process executes the task.
    ``engine`` names the execution engine (``interp``, ``compiled`` or
    ``specialized``); the dynamic counts (and thus the rendered tables)
    are identical for all three.
    """
    programs = [get_program(name)]
    # task-private counters (the "frontend once per program" proof),
    # but still honoring the REPRO_CACHE_DIR on-disk layer
    cache = FrontendCache(os.environ.get(CACHE_DIR_ENV) or None)
    baseline, = run_table1(programs, small=small, cache=cache,
                           engine=engine)
    baselines = {name: baseline}
    table2 = run_table2(programs, small=small, cache=cache,
                        baselines=baselines, engine=engine,
                        profile_mode=profile_mode)
    table3 = run_table3(programs, small=small, cache=cache,
                        baselines=baselines, engine=engine)
    return baseline, table2, table3, cache.stats()


def run_suite(programs: Optional[Iterable[BenchmarkProgram]] = None,
              small: bool = False, jobs: int = 1,
              engine: str = "interp",
              profile_mode: str = "auto") -> SuiteResult:
    """Run Tables 1-3 for the suite, ``jobs`` programs at a time.

    ``jobs <= 1`` runs serially in-process.  Pool failures degrade to
    serial execution with a note on stderr; results are identical
    either way — and identical for any ``engine``.
    ``profile_mode`` controls the LO column's self-training (see
    :func:`repro.pipeline.stats.measure_scheme`).
    """
    names = [p.name for p in (programs or all_programs())]
    results, used_pool = run_pooled(
        run_program, [(name, small, engine, profile_mode) for name in names],
        jobs)

    rows: List[BaselineMeasurement] = []
    table2: Cells = {}
    table3: Cells = {}
    cache_stats: Dict[str, Dict[str, int]] = {}
    for name, result in zip(names, results):
        baseline, cells2, cells3, stats = result
        rows.append(baseline)
        table2.update(cells2)
        table3.update(cells3)
        cache_stats[name] = stats
    return SuiteResult(names, rows, table2, table3, cache_stats,
                       jobs=jobs, parallel=used_pool, engine=engine)


# -- per-scheme fan-out for ``repro compare`` -------------------------


def compare_scheme(source: str, kind_name: str, scheme_name: str,
                   baseline_checks: int, inputs: Dict[str, float],
                   profile_mode: str = "auto") -> SchemeMeasurement:
    """Process-pool task for one ``compare`` row (module-level for
    pickling; enums travel by name)."""
    options = OptimizerOptions(scheme=Scheme[scheme_name],
                               kind=CheckKind[kind_name])
    return measure_scheme("<file>", source, options, baseline_checks,
                          inputs, profile_mode=profile_mode)


def run_compare(source: str, kind: CheckKind, baseline_checks: int,
                inputs: Dict[str, float], jobs: int = 1,
                profile_mode: str = "auto"
                ) -> List[Tuple[Scheme, SchemeMeasurement]]:
    """One ``compare`` cell per scheme, in :class:`Scheme` order."""
    schemes = list(Scheme)
    cells, _ = run_pooled(
        compare_scheme,
        [(source, kind.name, scheme.name, baseline_checks, inputs,
          profile_mode) for scheme in schemes], jobs)
    return list(zip(schemes, cells))
