"""Arithmetic kernels: integer loops, canonical form, exact products, truncation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hyperhodge
from hyperhodge import kernels

pairs = st.tuples(st.integers(-200, 200), st.integers(1, 60))
pair_lists = st.lists(pairs, max_size=24)


def canonical(pair_list):
    return [kernels.normalize(n, d) for n, d in pair_list]


def naive_product(a, b):
    if not a or not b:
        return []
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    return want


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 6, 10 ** 6))
def test_normalize_canonical_form(num, den):
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            kernels.normalize(num, den)
        return
    n, d = kernels.normalize(num, den)
    assert d > 0
    assert gcd(abs(n), d) == 1
    assert Fraction(n, d) == Fraction(num, den)
    if n == 0:
        assert d == 1


@given(pair_lists, pair_lists, st.integers(0, 50))
@example([], [(1, 2)], 3)
@example([(1, 2), (3, 1)], [], 0)
@example([(1, 1), (2, 1), (3, 1)], [(4, 1), (5, 1)], 0)
@example([(1, 1), (2, 1), (3, 1)], [(4, 1), (5, 1)], 2)
@example([(1, 1), (2, 1), (3, 1)], [(4, 1), (5, 1)], 9)
def test_poly_mul_matches_fraction_arithmetic(a, b, degree):
    a, b = canonical(a), canonical(b)
    fa = [Fraction(n, d) for n, d in a]
    fb = [Fraction(n, d) for n, d in b]
    want = naive_product(fa, fb)
    assert [Fraction(n, d) for n, d in kernels.poly_mul(a, b)] == want
    # the integer loop under it, whole and truncated at degree
    ints_a, ints_b = [n for n, _ in a], [n for n, _ in b]
    whole = naive_product(ints_a, ints_b)
    assert kernels.convolve(ints_a, ints_b) == whole
    cut = kernels.convolve(ints_a, ints_b, degree)
    assert cut == whole[:degree + 1]
    assert all(type(c) is int for c in cut)
    assert kernels.convolve(fa, fb, degree) == want[:degree + 1]


@given(pair_lists)
def test_linear_product_expands_factors(consts):
    consts = canonical(consts)
    got = kernels.linear_product(consts)
    want = [Fraction(1)]
    for n, d in consts:
        c = Fraction(n, d)
        nxt = [Fraction(0)] * (len(want) + 1)
        for i, x in enumerate(want):
            nxt[i] += x
            nxt[i + 1] += c * x
        want = nxt
    assert [Fraction(n, d) for n, d in got] == want


@given(pair_lists, st.integers(0, 6))
def test_linear_product_truncation_is_prefix(consts, cap):
    consts = canonical(consts)
    full = kernels.linear_product(consts)
    cut = kernels.linear_product(consts, max_degree=cap)
    assert cut == full[:cap + 1]


def test_linear_product_empty_is_one():
    assert kernels.linear_product([]) == [(1, 1)]


def test_times_linear_multiplies_and_truncates():
    # (1 - t - 6t^2)(1 + 2t) = 1 + t - 8t^2 - 12t^3
    assert kernels.times_linear([1, -1, -6], 2) == [1, 1, -8, -12]
    assert kernels.times_linear([1, -1, -6], 2, degree=2) == [1, 1, -8]
    assert kernels.times_linear([1], 5, degree=0) == [1]


def test_kernel_backend_is_pure_python_only():
    # perfbench's set-up step imports the package and prints this constant,
    # so it stays although the pure-Python kernels are the only ones.
    assert hyperhodge.KERNEL_BACKEND == "py"
    # and the kernels module keeps no backend name, loader or switch
    assert not [name for name in vars(kernels) if "backend" in name.lower()]
