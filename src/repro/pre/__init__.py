"""Redundancy elimination over arithmetic expressions: dominator-scoped
global value numbering, run before the check optimizer under
``value_number=True``."""

from .gvn import global_value_numbering

__all__ = ["global_value_numbering"]
