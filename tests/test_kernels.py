"""Arithmetic kernels: canonical form, exact products, truncation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperhodge
from hyperhodge import kernels

pairs = st.tuples(st.integers(-200, 200), st.integers(1, 60))
pair_lists = st.lists(pairs, max_size=24)


def canonical(pair_list):
    return [kernels.normalize(n, d) for n, d in pair_list]


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


@given(pair_lists, pair_lists)
def test_poly_mul_matches_fraction_arithmetic(a, b):
    a, b = canonical(a), canonical(b)
    got = kernels.poly_mul(a, b)
    fa = [Fraction(n, d) for n, d in a]
    fb = [Fraction(n, d) for n, d in b]
    if not fa or not fb:
        assert got == []
        return
    want = [Fraction(0)] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            want[i + j] += x * y
    assert [Fraction(n, d) for n, d in got] == want


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


def test_kernel_backend_is_pure_python_only():
    # perfbench's set-up step imports the package and prints this constant,
    # so it stays although the pure-Python kernels are the only ones.
    assert hyperhodge.KERNEL_BACKEND == "py"
    # and the kernels module keeps no backend name, loader or switch
    assert not [name for name in vars(kernels) if "backend" in name.lower()]
