"""Explain what the optimizer did to a program's checks.

``explain_optimization`` compiles a program twice (naive and optimized)
and reports, per function and per check family: how many static checks
existed, how many survived, what Cond-checks were inserted where, and
the dynamic before/after counts.  This is the "why did my check go
away / stay" tool a user of the optimizer reaches for first.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

from ..checks.canonical import CanonicalCheck
from ..checks.config import OptimizerOptions
from ..ir.function import Function
from ..ir.instructions import Check, Trap
from ..pipeline.driver import compile_source
from ..symbolic import LinearExpr

Number = Union[int, float]


class FamilyReport:
    """One family's before/after static story."""

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.checks_before: List[int] = []   # range-constants
        self.checks_after: List[int] = []
        self.cond_checks_after: List[str] = []

    @property
    def eliminated(self) -> int:
        return len(self.checks_before) - len(self.checks_after)

    def __repr__(self) -> str:
        return "FamilyReport(%s: %d -> %d)" % (
            self.expression, len(self.checks_before),
            len(self.checks_after))


class FunctionReport:
    """Per-function explanation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.families: Dict[str, FamilyReport] = {}
        self.traps: List[str] = []

    def family(self, linexpr: LinearExpr) -> FamilyReport:
        key = str(linexpr)
        report = self.families.get(key)
        if report is None:
            report = FamilyReport(key)
            self.families[key] = report
        return report


class ExplanationReport:
    """The whole module's explanation plus dynamic totals."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.functions: Dict[str, FunctionReport] = {}
        self.dynamic_before = 0
        self.dynamic_after = 0

    @property
    def percent_eliminated(self) -> float:
        if self.dynamic_before == 0:
            return 0.0
        return 100.0 * (1 - self.dynamic_after / self.dynamic_before)

    def render(self) -> str:
        lines = ["optimization report (%s)" % self.label,
                 "dynamic checks: %d -> %d (%.2f%% eliminated)"
                 % (self.dynamic_before, self.dynamic_after,
                    self.percent_eliminated)]
        for fname, freport in sorted(self.functions.items()):
            lines.append("")
            lines.append("function %s:" % fname)
            for key in sorted(freport.families):
                family = freport.families[key]
                before = ", ".join(str(b) for b in family.checks_before)
                after = ", ".join(str(b) for b in family.checks_after) \
                    or "none"
                lines.append("  family (%s): bounds [%s] -> [%s]"
                             % (family.expression, before, after))
                for cond in family.cond_checks_after:
                    lines.append("    + inserted %s" % cond)
            for trap in freport.traps:
                lines.append("  ! %s" % trap)
        return "\n".join(lines)


def _collect(function: Function, report: FunctionReport,
             after: bool) -> None:
    for inst in function.instructions():
        if isinstance(inst, Trap) and after:
            report.traps.append(inst.message)
        if not isinstance(inst, Check):
            continue
        canonical = CanonicalCheck.of(inst)
        family = report.family(canonical.linexpr)
        if not after:
            family.checks_before.append(canonical.bound)
        elif inst.is_conditional:
            family.cond_checks_after.append(str(inst))
        else:
            family.checks_after.append(canonical.bound)


def explain_optimization(source: str,
                         options: Optional[OptimizerOptions] = None,
                         inputs: Optional[Mapping[str, Number]] = None,
                         max_steps: int = 5_000_000,
                         rotate_loops: bool = False,
                         verify_ir: bool = False) -> ExplanationReport:
    """Compile twice (naive, then under ``options``) and produce the
    per-family report.  Both compiles take ``options``' inline axis
    and the ``rotate_loops``/``verify_ir`` flags, as ``repro run``
    does with and without ``--no-optimize``."""
    options = options or OptimizerOptions()
    report = ExplanationReport(options.label())
    for after in (False, True):
        program = compile_source(source, options, optimize=after,
                                 rotate_loops=rotate_loops,
                                 verify_ir=verify_ir)
        for function in program.module:
            freport = report.functions.setdefault(
                function.name, FunctionReport(function.name))
            _collect(function, freport, after=after)
        checks = program.run(inputs, max_steps).counters.checks
        if after:
            report.dynamic_after = checks
        else:
            report.dynamic_before = checks
    return report
