"""Scalar, dense-polynomial and Laurent-polynomial contracts."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperhodge.algebra import (DensePolynomial, LaurentPolynomial,
                                Rational, laurent_sum)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


# ---------------------------------------------------------------------------
# Rational scalar


def test_rational_examples():
    assert Rational(1, 2) * Rational(1, 2) == Rational(1, 4)
    assert Rational(1, 4) + Rational(-1, 4) == Rational(0, 1)
    assert Rational(23, 8) / Rational(23, 8) == Rational(1, 1)


def test_rational_canonical_form():
    assert Rational(2, 4) == Rational(1, 2)
    assert Rational(3, -6).denominator == 2
    assert Rational(3, -6).numerator == -1
    assert Rational(0).denominator == 1


def test_rational_division_by_zero_is_diagnosed():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 2) / Rational(0)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals)
def test_rational_results_stay_canonical(a, b):
    for value in (a + b, a - b, a * b):
        assert value.denominator > 0
        from math import gcd
        assert gcd(abs(value.numerator), value.denominator) == 1


# ---------------------------------------------------------------------------
# DensePolynomial


def _naive_mul(p, q):
    # independent double-loop reference
    a, b = p.coefficients, q.coefficients
    if not a or not b:
        return DensePolynomial()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return DensePolynomial(out)


def test_poly_mul_examples():
    one_plus_t = DensePolynomial([1, 1])
    one_minus_t = DensePolynomial([1, -1])
    assert one_plus_t * one_minus_t == DensePolynomial([1, 0, -1])
    p = DensePolynomial([Fraction(2, 3), 5])
    assert p * DensePolynomial([1]) == p
    assert DensePolynomial([1, 1]) * DensePolynomial([1, 3]) \
        == DensePolynomial([1, 4, 3])


@given(st.lists(rationals, max_size=33), st.lists(rationals, max_size=33))
def test_poly_mul_matches_naive_reference(a, b):
    p, q = DensePolynomial(a), DensePolynomial(b)
    assert p * q == _naive_mul(p, q)


def test_trailing_zeros_are_stripped():
    assert DensePolynomial([1, 2, 0, 0]) == DensePolynomial([1, 2])
    assert DensePolynomial([0, 0]).is_zero()


@pytest.mark.parametrize("coefficients", [[True], [1, 0.5]])
def test_coefficients_must_be_rationals_not_bools_or_floats(coefficients):
    with pytest.raises(TypeError):
        DensePolynomial(coefficients)


def test_poly_scalar_mul_and_sub():
    p = DensePolynomial([1, 2])
    assert 2 * p == DensePolynomial([2, 4])
    assert p - p == DensePolynomial()


# ---------------------------------------------------------------------------
# LaurentPolynomial


def test_laurent_sum_examples():
    t_minus2 = LaurentPolynomial({-2: 1})
    assert laurent_sum([t_minus2, LaurentPolynomial({-2: -1})]).is_zero()
    assert laurent_sum([]).is_zero()
    quarter = LaurentPolynomial({-1: Fraction(1, 4)})
    rest = LaurentPolynomial({-1: Fraction(3, 4)})
    assert laurent_sum([quarter, rest]) == LaurentPolynomial({-1: 1})


def test_laurent_never_stores_zero():
    p = LaurentPolynomial({-3: Fraction(1, 2), 5: 1})
    q = LaurentPolynomial({-3: Fraction(-1, 2)})
    assert laurent_sum([p, q]).support() == (5,)
    assert LaurentPolynomial({2: 0}).is_zero()


@given(st.lists(st.tuples(st.integers(-8, 8), rationals), max_size=10),
       st.lists(st.tuples(st.integers(-8, 8), rationals), max_size=10))
def test_laurent_addition_agrees_with_term_merge(a, b):
    p, q = LaurentPolynomial(a), LaurentPolynomial(b)
    merged = LaurentPolynomial(list(a) + list(b))
    assert laurent_sum([p, q]) == merged


@pytest.mark.parametrize("terms", [{True: 1}, [(False, 1)], {1.0: 1}],
                         ids=["bool-key", "bool-pair", "float"])
def test_laurent_exponents_must_be_ints_not_bools(terms):
    with pytest.raises(TypeError, match="Laurent exponents must be ints"):
        LaurentPolynomial(terms)
