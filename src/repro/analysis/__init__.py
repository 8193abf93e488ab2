"""CFG analyses used as substrates by the check optimizer: block
orders, dominance and postdominance, loops, affine forms and value
ranges."""

from .affine import AffineEnv, compute_affine_forms
from .dataflow import reverse_postorder
from .dominance import DominatorTree, PostDominators
from .intervals import Interval, IntervalAnalysis
from .loops import Loop, LoopForest

__all__ = [
    "AffineEnv", "DominatorTree", "Interval", "IntervalAnalysis", "Loop",
    "LoopForest", "PostDominators", "compute_affine_forms",
    "reverse_postorder",
]
