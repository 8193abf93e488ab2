"""The paper's primary contribution: PRE-based range-check optimization.

Canonical checks, families, the Check Implication Graph, availability /
anticipatability over checks, the seven placement schemes, implication
ablations, PRX/INX check construction, and the five-step optimizer.
"""

from .canonical import (CanonicalCheck, bounds_checks_for, make_check,
                        make_guard)
from .cig import CheckImplicationGraph, ImplicationStore
from .config import CheckKind, ImplicationMode, OptimizerOptions, Scheme
from .dataflow import CheckAnalysis
from .eliminate import eliminate_redundant, fold_compile_time
from .family import CheckUniverse, ids_of, universe_from_function
from .inx import rewrite_checks_to_inx
from .lcm import (apply_insertions, latest_insertions,
                  safe_earliest_insertions)
from .markstein import MarksteinInserter
from .optimizer import (OptimizeStats, RangeCheckOptimizer, count_checks,
                        optimize_function, optimize_module)
from .preheader import PreheaderInserter
from .strengthen import strengthen_checks
from .valuerange import eliminate_by_value_range

__all__ = [
    "CanonicalCheck", "CheckAnalysis", "CheckImplicationGraph", "CheckKind",
    "CheckUniverse", "ImplicationMode", "ImplicationStore", "MarksteinInserter", "OptimizeStats",
    "OptimizerOptions", "PreheaderInserter", "RangeCheckOptimizer", "Scheme",
    "apply_insertions", "bounds_checks_for", "count_checks",
    "eliminate_by_value_range", "eliminate_redundant", "fold_compile_time",
    "ids_of", "latest_insertions",
    "make_check", "make_guard", "optimize_function", "optimize_module",
    "rewrite_checks_to_inx", "safe_earliest_insertions",
    "strengthen_checks", "universe_from_function",
]
