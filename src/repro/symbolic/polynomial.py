"""Multivariate integer polynomials over symbolic names.

Induction-variable analysis (section 2.3 of the paper) classifies
induction expressions as *invariant*, *linear*, or *polynomial* in a
loop's basic variable.  :class:`Polynomial` is the substrate for that
classification: it supports exact addition, subtraction and
multiplication, degree queries per symbol, and conversion back to a
:class:`~repro.symbolic.linexpr.LinearExpr` when the total degree is at
most one.

A monomial is represented as a sorted tuple of ``(symbol, power)``
pairs; the empty tuple is the constant monomial.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

from .linexpr import LinearExpr

Monomial = Tuple[Tuple[str, int], ...]
PolyLike = Union["Polynomial", "LinearExpr", int]

_CONST_MONO: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[str, int] = {}
    for sym, pw in a:
        powers[sym] = powers.get(sym, 0) + pw
    for sym, pw in b:
        powers[sym] = powers.get(sym, 0) + pw
    return tuple(sorted((s, p) for s, p in powers.items() if p))


def _mono_degree(mono: Monomial) -> int:
    return sum(p for _, p in mono)


class Polynomial:
    """An immutable multivariate polynomial with integer coefficients."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[Monomial, int] = ()) -> None:
        cleaned: Dict[Monomial, int] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for mono, coeff in items:
            if coeff:
                cleaned[mono] = cleaned.get(mono, 0) + coeff
                if cleaned[mono] == 0:
                    del cleaned[mono]
        self._coeffs = cleaned
        self._hash = None  # computed on first __hash__

    def __getstate__(self):
        # the cached hash is seed-dependent; recompute after unpickling
        return self._coeffs

    def __setstate__(self, state) -> None:
        self._coeffs = state
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Polynomial":
        """The constant polynomial ``value``."""
        if value == 0:
            return _ZERO_POLY
        return Polynomial({_CONST_MONO: value})

    @staticmethod
    def symbol(name: str) -> "Polynomial":
        """The polynomial consisting of the single symbol ``name``."""
        return Polynomial({((name, 1),): 1})

    @staticmethod
    def from_linear(expr: LinearExpr) -> "Polynomial":
        """Lift a linear expression to a polynomial."""
        coeffs: Dict[Monomial, int] = {}
        for sym, coeff in expr.terms.items():
            coeffs[((sym, 1),)] = coeff
        if expr.const:
            coeffs[_CONST_MONO] = expr.const
        return Polynomial(coeffs)

    @staticmethod
    def _coerce(value: PolyLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, LinearExpr):
            return Polynomial.from_linear(value)
        if isinstance(value, int):
            return Polynomial.constant(value)
        raise TypeError("cannot coerce %r to Polynomial" % (value,))

    # -- accessors ----------------------------------------------------

    @property
    def coeffs(self) -> Mapping[Monomial, int]:
        """The monomial-to-coefficient mapping (a copy)."""
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._coeffs

    def is_constant(self) -> bool:
        """True when no monomial mentions a symbol."""
        return all(m == _CONST_MONO for m in self._coeffs)

    def constant_value(self) -> int:
        """The value of a constant polynomial (0 if zero)."""
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        return self._coeffs.get(_CONST_MONO, 0)

    def total_degree(self) -> int:
        """The maximum monomial degree (0 for constants and zero)."""
        if not self._coeffs:
            return 0
        return max(_mono_degree(m) for m in self._coeffs)

    def degree_in(self, symbols: Iterable[str]) -> int:
        """The maximum combined power of ``symbols`` over all monomials."""
        wanted = set(symbols)
        best = 0
        for mono in self._coeffs:
            deg = sum(p for s, p in mono if s in wanted)
            best = max(best, deg)
        return best

    def symbols(self) -> Tuple[str, ...]:
        """All symbols appearing in the polynomial, sorted."""
        found = set()
        for mono in self._coeffs:
            for sym, _ in mono:
                found.add(sym)
        return tuple(sorted(found))

    def is_linear(self) -> bool:
        """True when the total degree is at most one."""
        return self.total_degree() <= 1

    def to_linear(self) -> LinearExpr:
        """Convert a degree-<=1 polynomial to a LinearExpr."""
        if not self.is_linear():
            raise ValueError("polynomial %s has degree > 1" % self)
        terms: Dict[str, int] = {}
        const = 0
        for mono, coeff in self._coeffs.items():
            if mono == _CONST_MONO:
                const = coeff
            else:
                (sym, _), = mono
                terms[sym] = coeff
        return LinearExpr(terms, const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under ``env``; raises ``KeyError`` on missing symbols."""
        total = 0
        for mono, coeff in self._coeffs.items():
            value = coeff
            for sym, power in mono:
                value *= env[sym] ** power
            total += value
        return total

    def substitute(self, symbol: str, replacement: PolyLike) -> "Polynomial":
        """Replace every occurrence of ``symbol`` by ``replacement``."""
        repl = Polynomial._coerce(replacement)
        result = _ZERO_POLY
        for mono, coeff in self._coeffs.items():
            term = Polynomial.constant(coeff)
            for sym, power in mono:
                factor = repl if sym == symbol else Polynomial.symbol(sym)
                for _ in range(power):
                    term = term * factor
            result = result + term
        return result

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: PolyLike) -> "Polynomial":
        try:
            rhs = Polynomial._coerce(other)
        except TypeError:
            return NotImplemented
        merged = dict(self._coeffs)
        for mono, coeff in rhs._coeffs.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return Polynomial(merged)

    __radd__ = __add__

    def __sub__(self, other: PolyLike) -> "Polynomial":
        try:
            rhs = Polynomial._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        try:
            lhs = Polynomial._coerce(other)
        except TypeError:
            return NotImplemented
        return lhs + (-self)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._coeffs.items()})

    def __mul__(self, other: PolyLike) -> "Polynomial":
        try:
            rhs = Polynomial._coerce(other)
        except TypeError:
            return NotImplemented
        product: Dict[Monomial, int] = {}
        for m1, c1 in self._coeffs.items():
            for m2, c2 in rhs._coeffs.items():
                mono = _mono_mul(m1, m2)
                product[mono] = product.get(mono, 0) + c1 * c2
        return Polynomial(product)

    __rmul__ = __mul__

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, LinearExpr)):
            return self._coeffs == Polynomial._coerce(other)._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._coeffs.items())))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for mono, coeff in sorted(self._coeffs.items()):
            factors = []
            for sym, power in mono:
                factors.append(sym if power == 1 else "%s^%d" % (sym, power))
            if not factors:
                text = "%d" % coeff
            elif coeff == 1:
                text = "*".join(factors)
            elif coeff == -1:
                text = "-" + "*".join(factors)
            else:
                text = "%d*%s" % (coeff, "*".join(factors))
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)

    def __repr__(self) -> str:
        return "Polynomial(%r)" % (str(self),)


_ZERO_POLY = Polynomial({})
