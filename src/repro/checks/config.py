"""Configuration of the range-check optimizer.

The three independent axes reproduce exactly the paper's experimental
matrix (sections 3.3, 3.4, and 4):

* :class:`Scheme` -- the seven check placement schemes of Table 2;
* :class:`CheckKind` -- PRX-checks (program expressions) vs INX-checks
  (induction expressions);
* :class:`ImplicationMode` -- Table 3's ablation of the check
  implication property (``NI'``/``SE'`` use NONE, ``LLS'`` uses
  CROSS_FAMILY).
"""

from __future__ import annotations

import enum


class Scheme(enum.Enum):
    """Check placement schemes (section 3.3 / Table 2)."""

    NI = "NI"      # redundancy elimination, no insertion
    CS = "CS"      # check strengthening (Gupta)
    LNI = "LNI"    # latest-not-isolated placement
    SE = "SE"      # safe-earliest placement
    LI = "LI"      # preheader insertion of loop-invariant checks
    LLS = "LLS"    # preheader insertion with loop-limit substitution
    ALL = "ALL"    # LLS followed by SE
    # extension: the Markstein-Cocke-Markstein (1982) baseline the
    # paper's related-work section proposes comparing against
    MCM = "MCM"
    # extension: the abstract-interpretation baseline (value-range
    # analysis; compile-time elimination only, no insertion)
    VR = "VR"
    # extension: speculative convex-hull preheader guards.  Each
    # qualifying loop is versioned: one preheader SpecGuard covers the
    # whole [min, max] offset envelope of a check family, the guarded
    # fast path runs zero per-iteration checks for covered families,
    # and a guard miss dispatches to a fully checked clone (never a
    # trap).  Everything the guard cannot cover degrades to LLS
    # placement.
    SPEC = "SPEC"
    # extension: profile-priced placement (named after lifetime-optimal
    # speculative PRE, lospre).  Runs the LLS preheader pass, then
    # inserts LCM latest's checks or none, whichever executes fewer
    # checks at the per-edge execution counts of a training profile
    # (``OptimizerOptions.profile``); a tie keeps latest.  With no
    # profile it is the LCM latest placement, so LO is always
    # runnable.
    LO = "LO"


class CheckKind(enum.Enum):
    """How range checks are constructed (section 2.3)."""

    PRX = "PRX"    # from program expressions (the AST)
    INX = "INX"    # from induction expressions


class ImplicationMode(enum.Enum):
    """Which implications between checks the optimizer may use."""

    ALL = "all"                   # within and across families
    NONE = "none"                 # no implications at all (NI', SE')
    CROSS_FAMILY = "cross-family"  # across families only (LLS')


class OptimizerOptions:
    """One point in the experimental matrix."""

    def __init__(self, scheme: Scheme = Scheme.LLS,
                 kind: CheckKind = CheckKind.PRX,
                 implication: ImplicationMode = ImplicationMode.ALL,
                 profile=None, inline: bool = False) -> None:
        self.scheme = scheme
        self.kind = kind
        self.implication = implication
        # Optional EdgeProfile supplying the LO scheme's edge-cost
        # function.  Not part of ``label()``: the profile changes the
        # placement, not the scheme's identity; artifact-sensitive
        # cache keys carry its fingerprint separately.
        self.profile = profile
        # The interprocedural axis: inline eligible subroutine calls
        # before check canonicalization, so cross-call redundancy is
        # visible to the placement schemes.  Part of ``label()`` — it
        # changes which checks exist.
        self.inline = inline

    def label(self) -> str:
        """A short identifier such as ``PRX-LLS``, ``INX-SE'``, or
        ``INX-NI+inl``."""
        prime = {ImplicationMode.ALL: "",
                 ImplicationMode.NONE: "'",
                 ImplicationMode.CROSS_FAMILY: "'"}[self.implication]
        suffix = "+inl" if self.inline else ""
        return "%s-%s%s%s" % (self.kind.value, self.scheme.value, prime,
                              suffix)

    def __repr__(self) -> str:
        return "OptimizerOptions(%s, %s, %s%s)" % (
            self.scheme, self.kind, self.implication,
            ", inline" if self.inline else "")
