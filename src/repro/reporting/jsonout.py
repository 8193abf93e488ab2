"""Machine-readable results (the ``--json`` flag).

The text tables round percentages to two decimals and omit raw counts;
downstream tooling (regression dashboards, the benchmark harness)
wants the numbers themselves.  These helpers turn measurement objects
into plain dicts: per-cell dynamic counts, static counts, and the
per-pass timing events from each measurement's
:class:`~repro.pipeline.trace.PipelineTrace`.

Serialize with ``json.dumps(..., sort_keys=True)`` for byte-stable
output across runs with equal measurements.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..pipeline.stats import BaselineMeasurement, SchemeMeasurement
from ..pipeline.trace import FRONTEND_PASSES

#: Bumped whenever the JSON layout changes incompatibly.
TABLES_SCHEMA = "repro.tables.v1"
COMPARE_SCHEMA = "repro.compare.v1"
RUN_SCHEMA = "repro.run.v1"
LOADGEN_SCHEMA = "repro.loadgen.v1"
SERVICE_TABLES_SCHEMA = "repro.service.tables.v1"
SERVICE_ERROR_SCHEMA = "repro.service.error.v1"


def baseline_to_dict(row: BaselineMeasurement) -> Dict[str, Any]:
    """One Table 1 row as a plain dict."""
    return {
        "program": row.name,
        "lines": row.lines,
        "subroutines": row.subroutines,
        "loops": row.loops,
        "static_instructions": row.static_instructions,
        "dynamic_instructions": row.dynamic_instructions,
        "static_checks": row.static_checks,
        "dynamic_checks": row.dynamic_checks,
        "static_ratio": row.static_ratio,
        "dynamic_ratio": row.dynamic_ratio,
        "passes": row.trace.as_dict()["events"],
    }


def cell_to_dict(cell: SchemeMeasurement) -> Dict[str, Any]:
    """One Table 2/3 cell as a plain dict."""
    return {
        "program": cell.name,
        "config": cell.label,
        "dynamic_checks": cell.dynamic_checks,
        "baseline_checks": cell.baseline_checks,
        "static_checks": cell.static_checks,
        "percent_eliminated": cell.percent_eliminated,
        "optimize_seconds": cell.optimize_seconds,
        "compile_seconds": cell.compile_seconds,
        "frontend_cached": cell.trace.frontend_was_cached(),
        "passes": cell.trace.as_dict()["events"],
    }


def cells_to_list(cells: Mapping[Tuple[str, str], SchemeMeasurement],
                  row_order: Iterable[str],
                  program_order: Iterable[str]) -> List[Dict[str, Any]]:
    """Cells flattened in deterministic (config, program) order."""
    programs = list(program_order)
    out = []
    for label in row_order:
        for program in programs:
            cell = cells.get((label, program))
            if cell is not None:
                out.append(cell_to_dict(cell))
    return out


def tables_to_dict(suite: "SuiteResult", small: bool,
                   table2_labels: Iterable[str],
                   table3_labels: Iterable[str]) -> Dict[str, Any]:
    """The full ``repro tables --json`` document."""
    return {
        "schema": TABLES_SCHEMA,
        "small": small,
        "jobs": suite.jobs,
        "parallel": suite.parallel,
        "engine": getattr(suite, "engine", "interp"),
        "programs": suite.names,
        "table1": [baseline_to_dict(row) for row in suite.rows],
        "table2": cells_to_list(suite.table2, table2_labels, suite.names),
        "table3": cells_to_list(suite.table3, table3_labels, suite.names),
        "cache": {name: dict(stats)
                  for name, stats in suite.cache_stats.items()},
    }


def run_to_dict(config_label: str, counters, output: List[Any],
                trap: Any = None,
                optimize_stats: Any = None,
                trace: Any = None,
                frontend_cached: bool = False,
                backend_cached: Any = None,
                engine: str = "interp") -> Dict[str, Any]:
    """One program execution (``repro run --json`` and the service's
    ``run`` responses share this layout — the golden-file test locks
    the field set in).

    ``counters`` is an execution-counters object with ``snapshot()``;
    ``optimize_stats`` a module-total
    :class:`~repro.checks.optimizer.OptimizeStats` or ``None``;
    ``trap`` the :class:`~repro.errors.RangeTrap` when the program
    trapped (``ok`` is False and ``output`` holds the pre-trap
    prints).
    """
    doc: Dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "ok": trap is None,
        "config": config_label,
        "engine": engine,
        "output": list(output),
        "counters": counters.snapshot() if counters is not None else {},
        "trap": str(trap) if trap is not None else None,
        "frontend_cached": bool(frontend_cached),
        # None: this run never touched the backend cache (interp
        # engine); True/False: translation was served cached / ran cold.
        "backend_cached": backend_cached,
    }
    if optimize_stats is not None:
        doc["optimizer"] = {
            "checks_before": optimize_stats.checks_before,
            "checks_after": optimize_stats.checks_after,
            "inserted": optimize_stats.inserted,
            "eliminated": optimize_stats.eliminated,
            "strengthened": optimize_stats.strengthened,
        }
    else:
        doc["optimizer"] = None
    doc["phases"] = phases_to_dict(trace) if trace is not None else None
    return doc


def execution_to_dict(config_label: str, execution) -> Dict[str, Any]:
    """The run document of one
    :meth:`~repro.pipeline.driver.CompiledProgram.execute`: what
    ``repro run --json`` prints and the service's ``run`` body."""
    program = execution.program
    trace = program.trace
    return run_to_dict(
        config_label, execution.counters, execution.output,
        trap=execution.trap,
        optimize_stats=(program.total_stats() if program.optimize_stats
                        else None),
        trace=trace, frontend_cached=trace.frontend_was_cached(),
        backend_cached=trace.backend_was_cached(), engine=execution.engine)


def phases_to_dict(trace) -> Dict[str, float]:
    """Wall seconds of one request's phases (run and dump documents,
    and the service's ``repro_phase_seconds``).  ``parse`` is the
    frontend: its passes, or ``frontend`` and ``clone`` when the
    module came from the cache."""
    return {
        "parse": sum(trace.seconds(name) for name
                     in FRONTEND_PASSES + ("frontend", "clone")),
        "optimize": trace.seconds("check-optimize"),
        "execute": trace.seconds("execute"),
    }


def compare_to_dict(path: str, baseline: BaselineMeasurement,
                    cells: Iterable[Tuple["Scheme", SchemeMeasurement]]
                    ) -> Dict[str, Any]:
    """The ``repro compare --json`` document."""
    return {
        "schema": COMPARE_SCHEMA,
        "file": path,
        "baseline": baseline_to_dict(baseline),
        "schemes": [dict(cell_to_dict(cell), scheme=scheme.value)
                    for scheme, cell in cells],
    }
