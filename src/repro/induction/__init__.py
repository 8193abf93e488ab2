"""Induction-variable analysis: trip counts, induction expressions,
classification, and basic-variable materialization (section 2.3)."""

from .analysis import IndKind, InductionAnalysis, h_symbol, loop_ivs
from .materialize import BasicVarMaterializer
from .tripcount import LoopIV, find_loop_iv

__all__ = ["BasicVarMaterializer", "IndKind", "InductionAnalysis", "LoopIV",
           "find_loop_iv", "h_symbol", "loop_ivs"]
