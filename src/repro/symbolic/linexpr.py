"""Canonical linear expressions over symbolic names.

A :class:`LinearExpr` is a mapping ``{symbol: coefficient}`` plus an
integer constant term, kept in a canonical form:

* zero coefficients are dropped;
* terms are ordered by symbol name whenever the expression is rendered
  or hashed, so syntactically different but semantically equal
  expressions compare equal (the paper's canonical-order requirement in
  section 2.2).

Linear expressions are the currency of the range-check optimizer: the
*range-expression* of a canonical check is a LinearExpr with constant
term zero, and induction expressions for invariant/linear sequences are
LinearExprs over basic loop variables and region constants.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

Coefficient = int
ScalarLike = Union["LinearExpr", int]


class LinearExpr:
    """An immutable linear combination ``sum(coeff * symbol) + constant``.

    Symbols are plain strings (SSA names, loop-variable names, or source
    variable names).  Coefficients and the constant term are integers;
    the range-check machinery only ever needs integer arithmetic.
    """

    __slots__ = ("_terms", "_const", "_hash")

    def __init__(self, terms: Mapping[str, Coefficient] = (),
                 const: int = 0) -> None:
        cleaned: Dict[str, Coefficient] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for sym, coeff in items:
            if not isinstance(coeff, int):
                raise TypeError("coefficient for %r must be int, got %r"
                                % (sym, coeff))
            if coeff != 0:
                cleaned[sym] = cleaned.get(sym, 0) + coeff
                if cleaned[sym] == 0:
                    del cleaned[sym]
        if not isinstance(const, int):
            raise TypeError("constant term must be int, got %r" % (const,))
        self._terms: Dict[str, Coefficient] = cleaned
        self._const = const
        self._hash = None  # computed on first __hash__

    def __getstate__(self):
        # the cached hash is seed-dependent; recompute after unpickling
        return (self._terms, self._const)

    def __setstate__(self, state) -> None:
        self._terms, self._const = state
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: int) -> "LinearExpr":
        """The constant expression ``value``."""
        return LinearExpr({}, value)

    @staticmethod
    def symbol(name: str, coeff: Coefficient = 1) -> "LinearExpr":
        """The expression ``coeff * name``."""
        return LinearExpr({name: coeff}, 0)

    @staticmethod
    def zero() -> "LinearExpr":
        """The constant expression 0."""
        return _ZERO

    # -- accessors ----------------------------------------------------

    @property
    def terms(self) -> Mapping[str, Coefficient]:
        """The symbolic terms as a read-only mapping."""
        return dict(self._terms)

    @property
    def const(self) -> int:
        """The constant term."""
        return self._const

    def coefficient(self, symbol: str) -> Coefficient:
        """The coefficient of ``symbol`` (0 when absent)."""
        return self._terms.get(symbol, 0)

    def symbols(self) -> Tuple[str, ...]:
        """The symbols with nonzero coefficients, in canonical order."""
        return tuple(sorted(self._terms))

    def is_constant(self) -> bool:
        """True when the expression has no symbolic terms."""
        return not self._terms

    def is_zero(self) -> bool:
        """True when the expression is the constant 0."""
        return not self._terms and self._const == 0

    def drop_const(self) -> "LinearExpr":
        """The same symbolic terms with the constant term set to 0."""
        if self._const == 0:
            return self
        return LinearExpr(self._terms, 0)

    def sorted_terms(self) -> Iterator[Tuple[str, Coefficient]]:
        """Iterate ``(symbol, coefficient)`` pairs in canonical order."""
        return iter(sorted(self._terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike) -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self._terms, self._const + other)
        if isinstance(other, LinearExpr):
            merged = dict(self._terms)
            for sym, coeff in other._terms.items():
                merged[sym] = merged.get(sym, 0) + coeff
            return LinearExpr(merged, self._const + other._const)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self._terms, self._const - other)
        if isinstance(other, LinearExpr):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: ScalarLike) -> "LinearExpr":
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __neg__(self) -> "LinearExpr":
        return LinearExpr({s: -c for s, c in self._terms.items()},
                          -self._const)

    def __mul__(self, factor: int) -> "LinearExpr":
        if not isinstance(factor, int):
            return NotImplemented
        if factor == 0:
            return _ZERO
        return LinearExpr({s: c * factor for s, c in self._terms.items()},
                          self._const * factor)

    __rmul__ = __mul__

    def substitute(self, symbol: str, replacement: ScalarLike) -> "LinearExpr":
        """Replace ``symbol`` by ``replacement`` (an int or LinearExpr)."""
        coeff = self._terms.get(symbol, 0)
        if coeff == 0:
            return self
        remaining = {s: c for s, c in self._terms.items() if s != symbol}
        base = LinearExpr(remaining, self._const)
        if isinstance(replacement, int):
            return base + coeff * replacement
        return base + replacement * coeff

    def rename(self, mapping: Mapping[str, str]) -> "LinearExpr":
        """Rename symbols according to ``mapping`` (missing names kept)."""
        renamed: Dict[str, Coefficient] = {}
        for sym, coeff in self._terms.items():
            new = mapping.get(sym, sym)
            renamed[new] = renamed.get(new, 0) + coeff
        return LinearExpr(renamed, self._const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under ``env``; raises ``KeyError`` on a missing symbol."""
        total = self._const
        for sym, coeff in self._terms.items():
            total += coeff * env[sym]
        return total

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._terms == other._terms and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self._terms.items())),
                               self._const))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return "LinearExpr(%r)" % (str(self),)

    def __str__(self) -> str:
        parts = []
        for sym, coeff in self.sorted_terms():
            if coeff == 1:
                term = sym
            elif coeff == -1:
                term = "-%s" % sym
            else:
                term = "%d*%s" % (coeff, sym)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        if self._const or not parts:
            if parts and self._const >= 0:
                parts.append("+%d" % self._const)
            else:
                parts.append("%d" % self._const)
        return "".join(parts)


_ZERO = LinearExpr({}, 0)


def linear_sum(exprs: Iterable[ScalarLike]) -> LinearExpr:
    """Sum a sequence of LinearExprs and ints."""
    total: LinearExpr = _ZERO
    for expr in exprs:
        total = total + expr
    return total
