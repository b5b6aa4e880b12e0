"""Elementary symmetric functions against the brute-force subset oracle."""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperhodge.errors import DomainError
from hyperhodge.symmetric import elementary, gen_product, signed_convolution

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
value_sets = st.lists(rationals, max_size=8)


def subset_enumeration(i, values):
    """e_i by enumerating all i-element subsets — the test oracle."""
    if i == 0:
        return Fraction(1)
    return sum((prod(combo) for combo in combinations(values, i)), Fraction(0))


def test_elementary_examples():
    assert elementary(0, [7, 8, 9]) == 1
    assert elementary(0, []) == 1
    assert elementary(2, [1, 3, 5]) == 23
    assert elementary(3, [1, 3]) == 0


def test_elementary_rejects_negative_index():
    with pytest.raises(DomainError):
        elementary(-1, [1, 2])
    with pytest.raises(DomainError):
        elementary(1.5, [1, 2])
    with pytest.raises(DomainError):
        elementary(1.0, [1, 2])


@given(value_sets, st.integers(0, 9))
def test_elementary_matches_subset_enumeration(values, i):
    assert elementary(i, values) == subset_enumeration(i, values)


@given(value_sets, st.integers(0, 9), st.randoms(use_true_random=False))
def test_elementary_is_order_independent(values, i, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert elementary(i, shuffled) == elementary(i, values)


@given(value_sets, rationals)
def test_newton_style_recurrence(values, extra):
    # e_i(S + {x}) = e_i(S) + x * e_{i-1}(S)
    for i in range(1, len(values) + 2):
        assert elementary(i, list(values) + [extra]) \
            == elementary(i, values) + extra * elementary(i - 1, values)


def test_gen_product_examples():
    one = gen_product([])
    assert one.coefficients == (Fraction(1),)
    assert gen_product([1, 3]).coefficients == (1, 4, 3)
    assert gen_product([1, 3], sign=-1).coefficients == (1, -4, 3)


def test_gen_product_float_sign_keeps_exact_coefficients():
    # the sign picks the side of t but never enters the arithmetic
    negated = gen_product([Fraction(1, 2), 3], -1.0).coefficients
    assert negated == (1, Fraction(-7, 2), Fraction(3, 2))
    assert all(type(c) is Fraction for c in negated)
    assert gen_product([Fraction(1, 2)], 1.0).coefficients \
        == (1, Fraction(1, 2))


def test_gen_product_sign_validation():
    with pytest.raises(DomainError):
        gen_product([1], sign=2)
    with pytest.raises(TypeError):
        gen_product([1.5])


def test_signed_convolution_rejects_bad_index():
    for bad in (-1, 1.0, 0.5):
        with pytest.raises(DomainError):
            signed_convolution([1], [2], bad)


@given(value_sets)
def test_gen_product_constant_term_is_one(values):
    assert gen_product(values)(0) == 1


@given(value_sets)
def test_gen_product_coefficients_are_elementary(values):
    poly = gen_product(values)
    for i in range(len(values) + 2):
        assert poly.coefficient(i) == subset_enumeration(i, values)


def test_signed_convolution_examples():
    assert signed_convolution([1, 3], [1], 1) == 3  # e_1(a) - e_1(b)
    assert signed_convolution([1, 3], [], 2) == elementary(2, [1, 3])
    assert signed_convolution([5, 7], [], 1) == 12


@given(value_sets, value_sets, st.integers(0, 8))
def test_signed_convolution_is_generating_product_coefficient(a, b, i):
    product = gen_product(a) * gen_product(b, sign=-1)
    assert signed_convolution(a, b, i) == product.coefficient(i)


@given(value_sets, value_sets, st.integers(0, 3))
def test_signed_convolution_antisymmetry_for_odd_index(a, b, half):
    # swapping the two sets flips the sign when the index is odd; in
    # particular a set against itself convolves to zero there
    i = 2 * half + 1
    assert signed_convolution(a, b, i) == -signed_convolution(b, a, i)
    assert signed_convolution(a, a, i) == 0
