import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pompeiu.errors import ParseError, UnknownVariable
from pompeiu.expressions import (Add, Lit, Mul, Pow, Var, degree, evaluate, parse_complex,
                                 parse_expression, pretty, to_coefficients,
                                 validate_variables)


def coeffs1(text):
    # flatten the 1-factor key ((p, q),) -> (p, q)
    return {key[0]: v for key, v in to_coefficients(parse_expression(text), 1).items()}


@pytest.mark.parametrize("k", range(18))
def test_powers_expand_to_binomial_coefficients(k):
    # every bit pattern of the exponent up to 17; the integers stay exact
    c = coeffs1(f"(z+2*zbar)^{k}")
    assert c == {(p, k - p): complex(math.comb(k, p) * 2 ** (k - p)) for p in range(k + 1)}


def test_high_power_expands_under_the_product_cap():
    # squaring forms 414,688 products where repeated multiplication formed
    # 999,000; binomials above 2^53 round
    c = coeffs1("(z+zbar)^999")
    assert len(c) == 1000
    assert max(abs(c[(p, 999 - p)] / math.comb(999, p) - 1) for p in range(1000)) <= 1e-14


def test_spec_example_coefficients():
    c = coeffs1("1+2i*z*zbar^2")
    assert c[(0, 0)] == 1
    assert c[(1, 2)] == 2j
    assert set(c) == {(0, 0), (1, 2)}


def test_polydisc_variables():
    ast = parse_expression("z1*z2bar")
    validate_variables(ast, 2)
    vals = evaluate(ast, [np.asarray(0.5 + 0j), np.asarray(0.25j)])
    assert complex(vals) == pytest.approx((0.5) * np.conj(0.25j))
    with pytest.raises(UnknownVariable):
        validate_variables(ast, 1)
    with pytest.raises(UnknownVariable):
        validate_variables(parse_expression("z"), 2)


def test_malformed_power_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z^^2")
    assert err.value.position == 2


def test_trailing_garbage_and_unbalanced():
    with pytest.raises(ParseError):
        parse_expression("z )")
    with pytest.raises(ParseError):
        parse_expression("(z")
    with pytest.raises(ParseError):
        parse_expression("")


def test_power_binds_tighter_than_times():
    # 2i*z^2 at z=2 is 2i*4, not (2i*2)^2
    ast = parse_expression("2i*z^2")
    assert complex(evaluate(ast, [np.asarray(2.0 + 0j)])) == pytest.approx(8j)


def test_unary_minus():
    ast = parse_expression("-z+1")
    assert complex(evaluate(ast, [np.asarray(0.25 + 0j)])) == pytest.approx(0.75)
    assert complex(evaluate(parse_expression("2*-3"), [np.asarray(0j)])) == pytest.approx(-6)


def test_complex_literal_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.3-0.2i") == pytest.approx(0.3 - 0.2j)
    assert parse_complex("-0.25") == -0.25
    with pytest.raises(ParseError):
        parse_complex("z+1")


def test_evaluate_vectorized_broadcast():
    ast = parse_expression("z*zbar+1")
    z = np.array([0.1 + 0.2j, -0.3j, 0.5])
    got = evaluate(ast, [z])
    assert np.allclose(got, np.abs(z) ** 2 + 1)


# -- round-trip property ----------------------------------------------------

_leaves = st.one_of(
    st.builds(Lit, st.floats(0, 100, allow_nan=False).map(complex)),
    st.builds(Lit, st.floats(0, 100, allow_nan=False).map(lambda x: 1j * x)),
    st.builds(Var, st.one_of(st.none(), st.integers(1, 3)), st.booleans()),
)

_asts = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.integers(0, 5)),
    ),
    max_leaves=12,
)


@given(_asts)
def test_round_trip_parse_pretty_parse(ast):
    text = pretty(ast)
    reparsed = parse_expression(text)
    assert pretty(reparsed) == text
    # and the value agrees at a fixed sample point
    zs = [np.asarray(0.37 - 0.21j)] * 3
    assert complex(evaluate(ast, zs)) == pytest.approx(complex(evaluate(reparsed, zs)))


@given(st.text(max_size=20))
def test_parser_never_crashes_unexpectedly(text):
    # any input either parses or raises ParseError/UnknownVariable with position
    try:
        parse_expression(text)
    except ParseError:
        pass


def test_coefficients_match_evaluation():
    text = "(z+zbar)^2-3*z*zbar+2i"
    ast = parse_expression(text)
    coeffs = coeffs1(text)
    z = 0.3 - 0.4j
    direct = complex(evaluate(ast, [np.asarray(z)]))
    summed = sum(v * z**p * np.conj(z) ** q for (p, q), v in coeffs.items())
    assert direct == pytest.approx(summed)


@pytest.mark.parametrize("text, bound", [
    ("2-3i", 0), ("2^3", 0), ("z", 1), ("-zbar", 1), ("z*zbar + z^3", 3),
    ("(z + zbar)^33", 33), ("(1 + z1*z2bar)^3 * z3", 7), ("z^2 - z^2", 2)])
def test_degree_bounds_the_total_degree(text, bound):
    # an upper bound: the cancelling z^2 - z^2 still reads 2
    assert degree(parse_expression(text)) == bound
