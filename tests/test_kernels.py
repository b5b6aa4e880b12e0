"""Arithmetic kernels: integer loops, canonical form, exact products, truncation.

Also guards the layering: the ``(num, den)`` pair format stays inside
``kernels``, whose two pair adapters no other module of the package calls.
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

import hyperhodge
from hyperhodge import kernels

SOURCE = Path(hyperhodge.__file__).resolve().parent

pairs = st.tuples(st.integers(-200, 200), st.integers(1, 60))
pair_lists = st.lists(pairs, max_size=24)


def canonical(pair_list):
    return [(f.numerator, f.denominator)
            for f in (Fraction(n, d) for n, d in pair_list)]


def assert_canonical(pair_list):
    # den > 0, gcd(|num|, den) == 1, and zero only as (0, 1)
    for n, d in pair_list:
        assert type(n) is int and type(d) is int
        assert d > 0
        assert gcd(abs(n), d) == 1
        if n == 0:
            assert d == 1


def naive_product(a, b):
    if not a or not b:
        return []
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    return want


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
    product = kernels.poly_mul(a, b)
    assert_canonical(product)
    assert [Fraction(n, d) for n, d in product] == want
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
    assert_canonical(got)
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
    assert_canonical(cut)
    assert cut == full[:cap + 1]


@given(st.lists(st.tuples(st.integers(-200, 200),
                          st.integers(1, 60).map(lambda d: d * 6)
                          | st.integers(-60, -1)), max_size=8),
       st.lists(pairs, max_size=8))
def test_pair_adapters_canonicalise_unreduced_input(a, b):
    # input pairs need not be reduced or have a positive denominator
    product = kernels.poly_mul(a, b)
    assert_canonical(product)
    assert product == kernels.poly_mul(canonical(a), canonical(b))
    expanded = kernels.linear_product(a)
    assert_canonical(expanded)
    assert expanded == kernels.linear_product(canonical(a))


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


PAIR_ADAPTERS = {"poly_mul", "linear_product"}
PAIR_HELPERS = {"as_pairs", "from_pairs", "normalize"}


def test_pair_format_stays_inside_kernels():
    offences = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name in PAIR_ADAPTERS:
                    offences.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in PAIR_HELPERS:
                    offences.append(f"{path.name}:{node.lineno} defines "
                                    f"{node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.rsplit(".", 1)[-1] in PAIR_HELPERS:
                        offences.append(f"{path.name}:{node.lineno} imports "
                                        f"{alias.name}")
    assert not offences, offences
