"""Unit and property tests for multivariate polynomials."""

import pickle
import types

import pytest
from hypothesis import given, strategies as st

from repro.symbolic import LinearExpr, Polynomial

names = st.sampled_from(["h", "i", "n"])
small_ints = st.integers(min_value=-9, max_value=9)


def poly_strategy(depth=2):
    base = st.one_of(
        st.builds(Polynomial.constant, small_ints),
        st.builds(Polynomial.symbol, names),
    )
    if depth == 0:
        return base
    sub = poly_strategy(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: a + b, sub, sub),
        st.builds(lambda a, b: a - b, sub, sub),
        st.builds(lambda a, b: a * b, sub, sub),
    )


polys = poly_strategy()
envs = st.fixed_dictionaries({n: st.integers(-5, 5)
                              for n in ["h", "i", "n"]})


class TestConstruction:
    def test_constant(self):
        assert Polynomial.constant(5).constant_value() == 5

    def test_zero_constant_is_zero(self):
        assert Polynomial.constant(0).is_zero()

    def test_symbol(self):
        poly = Polynomial.symbol("h")
        assert poly.symbols() == ("h",)
        assert poly.total_degree() == 1

    def test_from_linear(self):
        poly = Polynomial.from_linear(LinearExpr({"i": 2, "j": 1}, 3))
        assert poly.evaluate({"i": 1, "j": 2}) == 7

    def test_constant_value_of_nonconstant_raises(self):
        with pytest.raises(ValueError):
            Polynomial.symbol("h").constant_value()


class TestArithmetic:
    def test_product_degree(self):
        h = Polynomial.symbol("h")
        assert (h * h).total_degree() == 2

    def test_distribution(self):
        h = Polynomial.symbol("h")
        one = Polynomial.constant(1)
        assert h * (h + one) == h * h + h

    def test_mixed_symbol_product(self):
        h = Polynomial.symbol("h")
        n = Polynomial.symbol("n")
        product = h * n
        assert product.degree_in(["h"]) == 1
        assert product.degree_in(["n"]) == 1
        assert product.total_degree() == 2

    def test_coercion_from_int(self):
        assert Polynomial.symbol("h") + 1 == \
            Polynomial.symbol("h") + Polynomial.constant(1)

    def test_coercion_from_linear(self):
        lin = LinearExpr({"h": 1}, 1)
        assert Polynomial.symbol("h") + lin == \
            Polynomial.symbol("h") * 2 + 1

    def test_rsub(self):
        poly = 3 - Polynomial.symbol("h")
        assert poly.evaluate({"h": 1}) == 2


class TestLinearConversion:
    def test_linear_roundtrip(self):
        lin = LinearExpr({"i": 2, "n": -1}, 7)
        assert Polynomial.from_linear(lin).to_linear() == lin

    def test_is_linear(self):
        h = Polynomial.symbol("h")
        assert (h * 3 + 1).is_linear()
        assert not (h * h).is_linear()

    def test_to_linear_rejects_quadratic(self):
        h = Polynomial.symbol("h")
        with pytest.raises(ValueError):
            (h * h).to_linear()


class TestSubstitution:
    def test_substitute_constant(self):
        h = Polynomial.symbol("h")
        poly = h * h + h * 2 + 1
        assert poly.substitute("h", 3).constant_value() == 16

    def test_substitute_polynomial(self):
        h = Polynomial.symbol("h")
        n = Polynomial.symbol("n")
        result = (h * h).substitute("h", n + 1)
        assert result == n * n + n * 2 + 1

    def test_substitute_missing_symbol(self):
        n = Polynomial.symbol("n")
        assert n.substitute("h", 5) == n


class TestDegrees:
    def test_degree_in_subset(self):
        h = Polynomial.symbol("h")
        n = Polynomial.symbol("n")
        poly = h * h * n + n
        assert poly.degree_in(["h"]) == 2
        assert poly.degree_in(["n"]) == 1
        assert poly.degree_in(["h", "n"]) == 3

    def test_degree_of_constant(self):
        assert Polynomial.constant(3).total_degree() == 0


class TestProperties:
    @given(polys, polys, envs)
    def test_addition_matches_evaluation(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(polys, polys, envs)
    def test_multiplication_matches_evaluation(self, a, b, env):
        assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)

    @given(polys, polys, envs)
    def test_subtraction_matches_evaluation(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(polys, polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, envs)
    def test_substitution_matches_evaluation(self, a, env):
        substituted = a.substitute("h", 2)
        inner = dict(env)
        inner["h"] = 2
        assert substituted.evaluate(env) == a.evaluate(inner)


class TestInputsAndPickling:
    COEFFS = {(("h", 2),): 3, (("n", 1),): -1, (): 4}

    def test_any_mapping(self):
        assert Polynomial(types.MappingProxyType(self.COEFFS)) == \
            Polynomial(self.COEFFS)

    def test_hash_is_not_pickled(self):
        poly = Polynomial(self.COEFFS)
        hash(poly)
        assert pickle.dumps(poly) == pickle.dumps(Polynomial(self.COEFFS))
        assert hash(pickle.loads(pickle.dumps(poly))) == hash(poly)
