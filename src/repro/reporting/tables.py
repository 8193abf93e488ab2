"""Render the paper's tables from suite measurements.

The layouts mirror the paper: Table 1 lists program characteristics,
Tables 2 and 3 have one column per program and one row per optimizer
configuration, with the compile-time columns on the right.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from ..pipeline.stats import BaselineMeasurement, SchemeMeasurement


def format_table1(rows: Sequence[BaselineMeasurement]) -> str:
    """Table 1: program characteristics of benchmark programs."""
    header = ("%-10s %6s %5s %6s | %9s %12s | %8s %12s | %7s %7s"
              % ("program", "lines", "subr", "loops", "stat.instr",
                 "dyn.instr", "stat.chk", "dyn.chk", "s-ratio", "d-ratio"))
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-10s %6d %5d %6d | %9d %12d | %8d %12d | %6.1f%% %6.1f%%"
            % (row.name, row.lines, row.subroutines, row.loops,
               row.static_instructions, row.dynamic_instructions,
               row.static_checks, row.dynamic_checks,
               row.static_ratio, row.dynamic_ratio))
    return "\n".join(lines)


def format_scheme_table(
        cells: Mapping[Tuple[str, str], SchemeMeasurement],
        row_order: Iterable[str], program_order: Iterable[str],
        title: str = "", timings: bool = True) -> str:
    """Tables 2/3: % of checks eliminated, one row per configuration.

    ``timings=False`` drops the wall-clock "Range(s)" column, making
    the rendered table deterministic across runs and job counts (the
    exact timings stay available via the JSON output).
    """
    programs = list(program_order)
    rows = list(row_order)
    width = max(8, max((len(p) for p in programs), default=8) + 1)
    header = "%-10s" % "scheme" + "".join(
        "%*s" % (width, p) for p in programs)
    if timings:
        header += "%10s" % "Range(s)"
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for label in rows:
        out = ["%-10s" % label]
        optimize_total = 0.0
        for program in programs:
            cell = cells.get((label, program))
            if cell is None:
                out.append("%*s" % (width, "-"))
            else:
                out.append("%*.2f" % (width, cell.percent_eliminated))
                optimize_total += cell.optimize_seconds
        if timings:
            out.append("%10.3f" % optimize_total)
        lines.append("".join(out))
    return "\n".join(lines)


#: Table 3 row labels, in the paper's order (primed = implication ablation).
TABLE3_LABELS = ["PRX-NI", "PRX-NI'", "PRX-SE", "PRX-SE'", "PRX-LLS",
                 "PRX-LLS'", "INX-NI", "INX-NI'", "INX-SE", "INX-SE'",
                 "INX-LLS", "INX-LLS'"]


def table2_labels() -> list:
    """Table 2 row labels: kind x scheme in evaluation order."""
    from ..benchsuite import TABLE2_SCHEMES
    from ..checks.config import CheckKind

    return ["%s-%s" % (kind.value, scheme.value)
            for kind in (CheckKind.PRX, CheckKind.INX)
            for scheme in TABLE2_SCHEMES]


def render_tables_text(suite, timings: bool = False) -> str:
    """Exactly the stdout of ``repro tables`` (text mode).

    One renderer shared by the CLI and the compile service so a
    service ``tables`` response is byte-identical to the CLI output
    (the per-run summary line goes to stderr and is not part of it).
    """
    return (format_table1(suite.rows) + "\n"
            + "overhead estimate: %.0f%% - %.0f%%\n"
            % overhead_estimate(suite.rows) + "\n"
            + format_scheme_table(suite.table2, table2_labels(),
                                  suite.names, "Table 2",
                                  timings=timings) + "\n"
            + "\n"
            + format_scheme_table(suite.table3, TABLE3_LABELS,
                                  suite.names, "Table 3",
                                  timings=timings) + "\n")


def tables_summary_line(suite) -> str:
    """The stderr summary line of ``repro tables``."""
    optimize_total = sum(c.optimize_seconds for c in suite.table2.values())
    optimize_total += sum(c.optimize_seconds for c in suite.table3.values())
    return ("-- %d programs, %d cells, %.3fs in the check optimizer "
            "(frontend compiled %d times)"
            % (len(suite.names), len(suite.table2) + len(suite.table3),
               optimize_total, suite.frontend_compiles()))


def rows_as_dict(cells: Mapping[Tuple[str, str], SchemeMeasurement]
                 ) -> Dict[str, Dict[str, float]]:
    """{row label: {program: percent eliminated}} for programmatic use."""
    result: Dict[str, Dict[str, float]] = {}
    for (label, program), cell in cells.items():
        result.setdefault(label, {})[program] = cell.percent_eliminated
    return result


def overhead_estimate(rows: Sequence[BaselineMeasurement],
                      instructions_per_check: int = 2) -> Tuple[float, float]:
    """The paper's section 4.1 estimate: naive range checking overhead,
    assuming each check costs ``instructions_per_check`` instructions.

    Returns (min%, max%) across the suite.
    """
    ratios = [row.dynamic_ratio * instructions_per_check for row in rows
              if row.dynamic_instructions]
    if not ratios:
        return 0.0, 0.0
    return min(ratios), max(ratios)
