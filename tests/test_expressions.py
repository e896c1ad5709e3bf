"""Tests for the config expression language.

Grammar oracles here are hand-evaluated: precedence and associativity
cases are small enough to check mentally, and the function table is
compared against the math module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp import ExpressionError, compile_expression
from phibvp.expressions import BINARY_FUNCTIONS, UNARY_FUNCTIONS


# random sentences of the grammar; constants include 0, so that two of them
# can divide by zero, and floats that overflow when combined
_ATOMS = st.one_of(
    st.sampled_from(["0", "1", "2.5", "1e308", "pi", "t", "x", "y"]),
    st.floats(0.0, 1e300).map(repr),
)
EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(sorted(UNARY_FUNCTIONS)), inner).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        st.tuples(st.sampled_from(sorted(BINARY_FUNCTIONS)), inner, inner).map(
            lambda p: f"{p[0]}({p[1]}, {p[2]})"
        ),
    ),
    max_leaves=10,
)


def ev(text, t=0.0, x=0.0, y=0.0):
    return float(compile_expression(text)(t, x, y))


class TestArithmetic:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2 + 3*4", 14.0),
            ("1 - 2 - 3", -4.0),
            ("6/3/2", 1.0),
            ("2*3 + 4*5", 26.0),
            ("(2 + 3)*4", 20.0),
            ("2^3^2", 512.0),  # right-associative
            ("-2^2", -4.0),  # unary minus binds looser than power
            ("2^-1", 0.5),
            ("--3", 3.0),
            ("1e2 + 1.5E-1", 100.15),
            (".5 + 2.", 2.5),
            ("pi", math.pi),
        ],
    )
    def test_constant_cases(self, text, value):
        assert ev(text) == pytest.approx(value, rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("sin(pi/2)", 1.0),
            ("cos(0)", 1.0),
            ("exp(1)", math.e),
            ("atan(1)", math.pi / 4),
            ("abs(-3)", 3.0),
            ("sqrt(4)", 2.0),
            ("min(2, 3)", 2.0),
            ("max(2, 3)", 3.0),
            ("min(1 + 1, 1)", 1.0),
        ],
    )
    def test_functions(self, text, value):
        assert ev(text) == pytest.approx(value, rel=1e-15)

    def test_variables(self):
        assert ev("t + 2*x - y", t=1.0, x=2.0, y=3.0) == 2.0

    def test_division_by_zero_is_nonfinite_not_raise(self):
        assert math.isinf(ev("1/t", t=0.0))
        assert math.isnan(ev("sqrt(t)", t=-1.0))

    def test_dividing_two_constants_follows_ieee(self):
        assert ev("1/0") == math.inf and ev("-1/0") == -math.inf
        assert math.isnan(ev("0/0")) and math.isnan(ev("(1/0) * 0"))
        assert ev("1 + pi/0") == math.inf

    @given(
        text=EXPRESSIONS,
        t=st.floats(),
        x=st.floats(),
        y=st.floats(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_expressions_never_raise(self, text, t, x, y):
        expr = compile_expression(text)
        assert expr(t, x, y).shape == ()
        assert expr(np.array([t, x, 0.0]), y, 0.0).shape == (3,)

    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        c=st.floats(-10, 10),
        t=st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_quadratic_matches_direct_evaluation(self, a, b, c, t):
        expr = compile_expression(f"{a!r} + {b!r}*t + {c!r}*t^2")
        got = float(expr(t, 0.0, 0.0))
        want = a + b * t + c * t * t
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestVectorization:
    def test_broadcasts_over_arrays(self):
        expr = compile_expression("t^2 - x")
        t = np.linspace(0.0, 2.0, 5)
        out = expr(t, 1.0, 0.0)
        assert out.shape == t.shape
        np.testing.assert_allclose(out, t**2 - 1.0)

    def test_constant_expression_broadcasts_to_input_shape(self):
        expr = compile_expression("3.5")
        t = np.zeros(7)
        out = expr(t, t, t)
        assert out.shape == (7,)
        assert np.all(out == 3.5)
        assert not expr.used

    def test_used_variables_tracked(self):
        expr = compile_expression("t + x")
        assert expr.used == frozenset({"t", "x"})

    def test_restricted_whitelist(self):
        expr = compile_expression("2*t", variables=("t",))
        assert float(expr(3.0)) == 6.0
        with pytest.raises(ExpressionError, match="unknown name 'x'"):
            compile_expression("2*x", variables=("t",))

    def test_wrong_arity_call(self):
        expr = compile_expression("t", variables=("t",))
        with pytest.raises(ExpressionError):
            expr(1.0, 2.0)


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment,col",
        [
            ("2 $ 3", "unexpected character", 3),
            ("q", "unknown name", 1),
            ("foo(3)", "unknown function", 1),
            ("2 +", "unexpected end", 4),
            ("(2", "expected ')'", 3),
            ("2 3", "trailing", 3),
            ("min(1)", "expected ','", 6),
            ("sin(, 2)", "unexpected token", 5),
            ("", "empty expression", 1),
            ("   ", "empty expression", 1),
        ],
    )
    def test_located_errors(self, text, fragment, col):
        with pytest.raises(ExpressionError) as err:
            compile_expression(text)
        assert fragment in str(err.value)
        assert err.value.col == col

    def test_function_name_without_call_is_unknown_name(self):
        # sin with no parenthesis is not a value
        with pytest.raises(ExpressionError, match="unknown name 'sin'"):
            compile_expression("sin + 1")
