"""Static single assignment: construction and destruction."""

from .construct import construct_ssa
from .destruct import destruct_ssa, is_ssa, split_critical_edges

__all__ = ["construct_ssa", "destruct_ssa", "is_ssa",
           "split_critical_edges"]
