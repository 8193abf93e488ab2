"""Reproductions of the paper's figures as before/after IR listings.

Each function returns the mini-Fortran source of the figure's program
fragment plus the printed IR before and after the relevant
transformation, so examples and tests can assert the paper's claimed
check counts (Figure 1: 4 -> 3 -> 2 checks; Figure 6: the loop body
ends up check-free with two Cond-checks in the preheader).
"""

from __future__ import annotations

from typing import Dict

from ..checks.config import OptimizerOptions, Scheme
from ..checks.optimizer import count_checks
from ..ir.printer import format_function
from ..pipeline.driver import compile_source

# Figure 1: integer A[5..10]; A[2*N] = 0; A[2*N-1] = 1
FIGURE1_SOURCE = """
program figure1
  input integer :: n = 4
  integer :: a(5:10)
  a(2 * n) = 0
  a(2 * n - 1) = 1
  print a(8)
end program
"""

# Figure 5: a check hoisted above a branch can add work on one path
FIGURE5_SOURCE = """
program figure5
  input integer :: i = 3, c = 1
  integer :: a(1:10)
  if (c > 0) then
    a(i) = 1
  else
    a(i + 4) = 2
  end if
  print a(i)
end program
"""

# Figure 6: invariant and linear checks hoisted out of a do loop
FIGURE6_SOURCE = """
program figure6
  input integer :: n = 4, k = 7
  integer :: a(1:10)
  integer :: j
  do j = 1, 2 * n
    a(k) = a(k) + 1
    a(j) = a(j) + 2
  end do
  print a(k)
end program
"""


class FigureReport:
    """Before/after of one figure reproduction."""

    def __init__(self, name: str, source: str, before_ir: str,
                 after_ir: str, checks_before: int, checks_after: int) -> None:
        self.name = name
        self.source = source
        self.before_ir = before_ir
        self.after_ir = after_ir
        self.checks_before = checks_before
        self.checks_after = checks_after

    def __str__(self) -> str:
        return ("=== %s ===\n--- before (%d checks) ---\n%s\n"
                "--- after (%d checks) ---\n%s"
                % (self.name, self.checks_before, self.before_ir,
                   self.checks_after, self.after_ir))


def _reproduce(name: str, source: str,
               options: OptimizerOptions) -> FigureReport:
    before = compile_source(source, optimize=False).module.main
    after = compile_source(source, options).module.main
    return FigureReport(name, source, format_function(before),
                        format_function(after), count_checks(before),
                        count_checks(after))


def figure1_availability() -> FigureReport:
    """Figure 1(a)->(b): availability alone removes the implied check."""
    return _reproduce("figure1-NI", FIGURE1_SOURCE,
                      OptimizerOptions(scheme=Scheme.NI))


def figure1_strengthening() -> FigureReport:
    """Figure 1(a)->(c): strengthening gets down to two checks."""
    return _reproduce("figure1-CS", FIGURE1_SOURCE,
                      OptimizerOptions(scheme=Scheme.CS))


def figure5_safe_earliest() -> FigureReport:
    """Figure 5: safe-earliest placement hoists a check above the
    branch (and, as the paper notes, is not always profitable)."""
    return _reproduce("figure5-SE", FIGURE5_SOURCE,
                      OptimizerOptions(scheme=Scheme.SE))


def figure6_preheader() -> FigureReport:
    """Figure 6: preheader insertion with loop-limit substitution."""
    return _reproduce("figure6-LLS", FIGURE6_SOURCE,
                      OptimizerOptions(scheme=Scheme.LLS))


def all_figures() -> Dict[str, FigureReport]:
    """Every reproduced figure, by name."""
    return {
        "figure1-NI": figure1_availability(),
        "figure1-CS": figure1_strengthening(),
        "figure5-SE": figure5_safe_earliest(),
        "figure6-LLS": figure6_preheader(),
    }
