"""Unit and property tests for canonical linear expressions."""

import pickle
import types

import pytest
from hypothesis import given, strategies as st

from repro.symbolic import LinearExpr, linear_sum

symbols = st.sampled_from(["i", "j", "k", "n", "m"])
coefficients = st.integers(min_value=-50, max_value=50)
linexprs = st.builds(
    LinearExpr,
    st.dictionaries(symbols, coefficients, max_size=4),
    coefficients,
)
envs = st.fixed_dictionaries({name: st.integers(-100, 100)
                              for name in ["i", "j", "k", "n", "m"]})


class TestConstruction:
    def test_constant(self):
        expr = LinearExpr.constant(7)
        assert expr.is_constant()
        assert expr.const == 7

    def test_symbol(self):
        expr = LinearExpr.symbol("n")
        assert expr.coefficient("n") == 1
        assert expr.const == 0

    def test_symbol_with_coefficient(self):
        expr = LinearExpr.symbol("n", 3)
        assert expr.coefficient("n") == 3

    def test_zero(self):
        assert LinearExpr.zero().is_zero()
        assert not LinearExpr.zero()

    def test_zero_coefficients_dropped(self):
        expr = LinearExpr({"i": 0, "j": 2}, 1)
        assert expr.symbols() == ("j",)

    def test_duplicate_terms_merge(self):
        expr = LinearExpr([("i", 2), ("i", 3)], 0)
        assert expr.coefficient("i") == 5

    def test_cancelling_terms_vanish(self):
        expr = LinearExpr([("i", 2), ("i", -2)], 0)
        assert expr.is_zero()

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(TypeError):
            LinearExpr({"i": 1.5}, 0)

    def test_non_integer_constant_rejected(self):
        with pytest.raises(TypeError):
            LinearExpr({}, 0.5)


class TestArithmetic:
    def test_add_expressions(self):
        a = LinearExpr({"i": 1}, 2)
        b = LinearExpr({"i": 2, "j": 1}, -1)
        total = a + b
        assert total.coefficient("i") == 3
        assert total.coefficient("j") == 1
        assert total.const == 1

    def test_add_int(self):
        assert (LinearExpr.symbol("i") + 5).const == 5

    def test_radd(self):
        assert (5 + LinearExpr.symbol("i")).const == 5

    def test_sub(self):
        diff = LinearExpr.symbol("i") - LinearExpr.symbol("i")
        assert diff.is_zero()

    def test_rsub(self):
        expr = 10 - LinearExpr.symbol("i")
        assert expr.coefficient("i") == -1
        assert expr.const == 10

    def test_neg(self):
        expr = -LinearExpr({"i": 2}, 3)
        assert expr.coefficient("i") == -2
        assert expr.const == -3

    def test_mul_scalar(self):
        expr = LinearExpr({"i": 2}, 3) * 4
        assert expr.coefficient("i") == 8
        assert expr.const == 12

    def test_mul_zero(self):
        assert (LinearExpr.symbol("i") * 0).is_zero()

    def test_linear_sum(self):
        total = linear_sum([LinearExpr.symbol("i"), 3,
                            LinearExpr.symbol("i", 2)])
        assert total.coefficient("i") == 3
        assert total.const == 3


class TestSubstitution:
    def test_substitute_with_int(self):
        expr = LinearExpr({"i": 2, "j": 1}, 1)
        result = expr.substitute("i", 5)
        assert result.coefficient("i") == 0
        assert result.const == 11

    def test_substitute_with_expression(self):
        expr = LinearExpr({"i": 2}, 0)
        result = expr.substitute("i", LinearExpr({"n": 1}, -1))
        assert result.coefficient("n") == 2
        assert result.const == -2

    def test_substitute_missing_symbol_is_noop(self):
        expr = LinearExpr({"i": 1}, 0)
        assert expr.substitute("z", 3) is expr

    def test_rename(self):
        expr = LinearExpr({"i": 2, "j": 1}, 5)
        renamed = expr.rename({"i": "x"})
        assert renamed.coefficient("x") == 2
        assert renamed.coefficient("j") == 1

    def test_rename_merging(self):
        expr = LinearExpr({"i": 2, "j": 3}, 0)
        renamed = expr.rename({"i": "j"})
        assert renamed.coefficient("j") == 5


class TestQueries:
    def test_symbols_sorted(self):
        expr = LinearExpr({"z": 1, "a": 1, "m": 1}, 0)
        assert expr.symbols() == ("a", "m", "z")

    def test_drop_const(self):
        expr = LinearExpr({"i": 1}, 9)
        assert expr.drop_const().const == 0
        assert expr.drop_const().coefficient("i") == 1

    def test_evaluate(self):
        expr = LinearExpr({"i": 2, "j": -1}, 4)
        assert expr.evaluate({"i": 3, "j": 1}) == 9

    def test_evaluate_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            LinearExpr.symbol("i").evaluate({})

    def test_str_canonical_order(self):
        expr = LinearExpr({"j": -1, "i": 2}, 3)
        assert str(expr) == "2*i-j+3"

    def test_str_zero(self):
        assert str(LinearExpr.zero()) == "0"

    def test_equality_and_hash(self):
        a = LinearExpr({"i": 1, "j": 2}, 3)
        b = LinearExpr({"j": 2, "i": 1}, 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert LinearExpr({"i": 1}, 0) != LinearExpr({"i": 1}, 1)


class TestProperties:
    @given(linexprs, linexprs, envs)
    def test_addition_matches_evaluation(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(linexprs, linexprs, envs)
    def test_subtraction_matches_evaluation(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(linexprs, coefficients, envs)
    def test_scaling_matches_evaluation(self, a, c, env):
        assert (a * c).evaluate(env) == a.evaluate(env) * c

    @given(linexprs, envs)
    def test_negation_matches_evaluation(self, a, env):
        assert (-a).evaluate(env) == -a.evaluate(env)

    @given(linexprs, linexprs)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(linexprs, linexprs, linexprs)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(linexprs)
    def test_self_subtraction_is_zero(self, a):
        assert (a - a).is_zero()

    @given(linexprs, linexprs, envs)
    def test_substitution_matches_evaluation(self, a, repl, env):
        substituted = a.substitute("i", repl)
        inner = dict(env)
        inner["i"] = repl.evaluate(env)
        assert substituted.evaluate(env) == a.evaluate(inner)

    @given(linexprs)
    def test_hash_consistent_with_eq(self, a):
        clone = LinearExpr(dict(a.terms), a.const)
        assert a == clone
        assert hash(a) == hash(clone)


class TestInputsAndPickling:
    def test_any_mapping(self):
        terms = {"i": 2, "n": -1}
        assert LinearExpr(types.MappingProxyType(terms), 3) == \
            LinearExpr(terms, 3)

    def test_pairs(self):
        assert LinearExpr([("i", 2), ("i", 1)], 0) == LinearExpr({"i": 3})

    def test_hash_is_not_pickled(self):
        expr = LinearExpr({"i": 2, "n": -1}, 3)
        hash(expr)
        assert pickle.dumps(expr) == \
            pickle.dumps(LinearExpr({"i": 2, "n": -1}, 3))
        assert hash(pickle.loads(pickle.dumps(expr))) == hash(expr)
