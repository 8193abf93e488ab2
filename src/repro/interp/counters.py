"""Dynamic execution counters.

The paper measures programs by *dynamic counts of instructions* and
*dynamic counts of range checks* (section 4).  The interpreter
increments one of three counters per executed instruction:

* ``instructions`` -- every non-check, non-phi instruction;
* ``checks`` -- every executed :class:`Check`, conditional or not
  (a Cond-check whose guard fails still did run-time work and counts);
* ``phis`` -- phi moves, kept separate because they are an artifact of
  interpreting SSA directly rather than emitted code.

``check_ratio`` reproduces the paper's ``check/instr`` columns of
Table 1.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple


class ExecutionCounters:
    """Mutable counters filled in by the interpreter."""

    __slots__ = ("instructions", "checks", "phis", "guarded_checks",
                 "guard_skipped", "spec_guards", "spec_misses",
                 "traps", "edges")

    def __init__(self) -> None:
        self.instructions = 0
        self.checks = 0
        self.phis = 0
        self.guarded_checks = 0
        # Cond-checks whose guard inequality failed: they still count as
        # executed ``checks`` work, but the range inequality itself was
        # never evaluated.  ``effective_checks`` subtracts them, which
        # is the count the fuzz oracle compares against the naive
        # baseline (a hoisted check above a zero-trip loop does run-time
        # work but performs no range comparison).
        self.guard_skipped = 0
        # SPEC envelope guards: ``spec_guards`` counts evaluated
        # SpecGuard envelopes (pre-guard failures are free -- the loop
        # never runs), ``spec_misses`` counts envelopes that failed and
        # dispatched to the checked slow path.  Kept out of ``checks``:
        # a guard may fail on a run whose baseline did zero checks, and
        # the oracle's no-extra-work invariant compares effective
        # checks against the naive baseline.
        self.spec_guards = 0
        self.spec_misses = 0
        self.traps = 0
        # per-edge execution counts, keyed (function, src block, dst
        # block) with "" as the src of the function-entry pseudo-edge.
        # None unless the run opted into edge collection: bumping a
        # dict per branch is pure overhead for the counting the paper
        # measures, so it stays off the hot path by default.  Kept out
        # of snapshot(): edge sets are a profile artifact that only
        # the interpreter records, not a parity field.
        self.edges: Optional[Dict[Tuple[str, str, str], int]] = None

    def enable_edge_collection(self) -> Dict[Tuple[str, str, str], int]:
        """Arm per-edge counting; returns the mutable edge map."""
        if self.edges is None:
            self.edges = defaultdict(int)
        return self.edges

    def edges_by_function(self) -> Dict[str, Dict[Tuple[str, str], int]]:
        """Collected edge counts grouped per function (plain dicts)."""
        grouped: Dict[str, Dict[Tuple[str, str], int]] = {}
        for (fn, src, dst), count in (self.edges or {}).items():
            grouped.setdefault(fn, {})[(src, dst)] = count
        return grouped

    def check_ratio(self) -> float:
        """Dynamic checks per non-check instruction (Table 1 ratio)."""
        if self.instructions == 0:
            return 0.0
        return self.checks / self.instructions

    def effective_checks(self) -> int:
        """Checks whose range inequality was actually evaluated."""
        return self.checks - self.guard_skipped

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy, for reports and tests."""
        return {
            "instructions": self.instructions,
            "checks": self.checks,
            "phis": self.phis,
            "guarded_checks": self.guarded_checks,
            "guard_skipped": self.guard_skipped,
            "spec_guards": self.spec_guards,
            "spec_misses": self.spec_misses,
            "traps": self.traps,
        }

    def __repr__(self) -> str:
        return ("ExecutionCounters(instructions=%d, checks=%d, phis=%d)"
                % (self.instructions, self.checks, self.phis))
