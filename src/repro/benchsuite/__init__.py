"""The ten-program benchmark suite and its runner (paper section 4)."""

from .parallel import SuiteResult, run_compare, run_program, run_suite
from .registry import (BenchmarkProgram, all_programs, cross_call_programs,
                       get_program)
from .runner import (BENCH_PARITY_FIELDS, TABLE2_SCHEMES, TABLE3_ROWS,
                     run_table1, run_table2, run_table3)

__all__ = ["BENCH_PARITY_FIELDS", "BenchmarkProgram", "SuiteResult",
           "TABLE2_SCHEMES", "TABLE3_ROWS", "all_programs",
           "cross_call_programs", "get_program",
           "run_compare", "run_program", "run_suite",
           "run_table1", "run_table2", "run_table3"]
