"""Rendering of the paper's tables and figures from measurements."""

from .figures import (FIGURE1_SOURCE, FIGURE5_SOURCE, FIGURE6_SOURCE,
                      FigureReport, all_figures, figure1_availability,
                      figure1_strengthening, figure5_safe_earliest,
                      figure6_preheader)
from .explain import (ExplanationReport, FamilyReport, FunctionReport,
                      explain_optimization)
from .jsonout import (LOADGEN_SCHEMA, RUN_SCHEMA, SERVICE_ERROR_SCHEMA,
                      SERVICE_TABLES_SCHEMA, baseline_to_dict, cell_to_dict,
                      cells_to_list, compare_to_dict, run_to_dict,
                      tables_to_dict)
from .tables import (TABLE3_LABELS, format_scheme_table, format_table1,
                     overhead_estimate, render_tables_text, rows_as_dict,
                     table2_labels, tables_summary_line)

__all__ = ["ExplanationReport", "FamilyReport",
           "FIGURE1_SOURCE", "FIGURE5_SOURCE", "FIGURE6_SOURCE",
           "FunctionReport", "LOADGEN_SCHEMA", "RUN_SCHEMA",
           "SERVICE_ERROR_SCHEMA", "SERVICE_TABLES_SCHEMA", "TABLE3_LABELS",
           "baseline_to_dict", "cell_to_dict",
           "cells_to_list", "compare_to_dict", "explain_optimization",
           "FigureReport", "all_figures", "figure1_availability",
           "figure1_strengthening", "figure5_safe_earliest",
           "figure6_preheader", "format_scheme_table", "format_table1",
           "overhead_estimate", "render_tables_text", "rows_as_dict",
           "run_to_dict", "table2_labels", "tables_summary_line",
           "tables_to_dict"]
