"""Closed forms, recursions and the cross-checked table."""

import sys
import threading
import time
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhodge import identities, kernels, localization, symmetric, values
from hyperhodge.errors import DomainError, VerificationError
from hyperhodge.values import (HodgeValueKey, MemoTable, base_value, closed_D,
                               closed_d, recursive_D, recursive_d, table)

HALF = Fraction(1, 2)


def subset_e(i, values):
    if i == 0:
        return Fraction(1)
    return sum((prod(c) for c in combinations(values, i)), Fraction(0))


# ---------------------------------------------------------------------------
# closed forms


def test_closed_D_base_examples():
    assert closed_D(1, 4) == Fraction(1, 4)
    for k in range(4, 42, 2):
        assert closed_D(0, k) == HALF


def test_closed_D_frozen_value():
    # e_2(1, 3, 5) = 23 by subset enumeration, frozen
    assert subset_e(2, [1, 3, 5]) == 23
    assert closed_D(2, 8) == Fraction(23, 8)


def test_closed_d_examples():
    for k in range(2, 42, 2):
        assert closed_d(0, k) == HALF
    assert closed_d(1, 4) == HALF
    assert closed_d(1, 6) == Fraction(3, 2)
    assert subset_e(2, [2, 4, 6]) == 44
    assert closed_d(2, 8) == Fraction(44, 8) == Fraction(11, 2)


@pytest.mark.parametrize("k", range(4, 22, 2))
def test_closed_forms_match_subset_enumeration(k):
    g = (k - 2) // 2
    for i in range(g + 2):
        assert closed_D(i, k) == subset_e(i, range(1, k - 2, 2)) / 2 ** (i + 1)
        assert closed_d(i, k) == subset_e(i, range(2, k - 1, 2)) / 2 ** (i + 1)


def test_closed_form_domains():
    with pytest.raises(DomainError):
        closed_D(0, 5)
    with pytest.raises(DomainError):
        closed_D(0, 2)
    with pytest.raises(DomainError):
        closed_d(0, 3)
    with pytest.raises(DomainError):
        closed_D(-1, 4)
    assert closed_d(0, 2) == HALF  # the 0-dimensional space is fine


def test_vanishing_beyond_genus():
    for k in (4, 6, 10):
        g = (k - 2) // 2
        assert closed_D(g + 1, k) == 0
        assert closed_d(g + 3, k) == 0
        assert recursive_D(g + 1, k) == 0
        assert recursive_d(g + 1, k) == 0


@pytest.mark.parametrize("closed", [closed_D, closed_d])
def test_closed_value_caches_are_bounded(closed):
    size = closed.cache_info().maxsize
    closed.cache_clear()
    for i in range(2, size + 3):  # size + 1 keys, each above k = 4's genus
        assert closed(i, 4) == 0
    assert closed.cache_info().currsize == size


def test_closed_forms_above_the_genus_build_no_family():
    # a degree-i family would take seconds and hundreds of MB to say 0;
    # __wrapped__ bypasses the lru_cache, so the call is cold
    start = time.perf_counter()
    assert closed_D.__wrapped__(10 ** 7, 40) == 0
    assert closed_d.__wrapped__(10 ** 7, 40) == 0
    assert time.perf_counter() - start < 1.0
    assert closed_D(10 ** 7, 40) == closed_d(10 ** 7, 40) == 0


def test_positivity_within_genus():
    for k in range(4, 30, 2):
        for i in range((k - 2) // 2 + 1):
            assert closed_D(i, k) > 0
            assert closed_d(i, k) > 0


def test_denominator_shape():
    # 2**(i+1) clears every denominator
    for k in range(4, 30, 2):
        for i in range((k - 2) // 2 + 1):
            assert (closed_D(i, k) * 2 ** (i + 1)).denominator == 1
            assert (closed_d(i, k) * 2 ** (i + 1)).denominator == 1


# ---------------------------------------------------------------------------
# base values and boundary conventions


def test_base_value_table():
    assert base_value(HodgeValueKey("D", 0, 2)) == HALF
    assert base_value(HodgeValueKey("d", 0, 2)) == HALF
    assert base_value(HodgeValueKey("D", 1, 4)) == Fraction(1, 4)
    assert base_value(HodgeValueKey("d", 3, 6)) == 0  # i=3 > g=2
    assert base_value(HodgeValueKey("D", 5, 2)) == 0
    assert base_value(HodgeValueKey("d", 1, 4)) is None
    assert base_value(HodgeValueKey("D", 1, 6)) is None


def test_key_validation():
    with pytest.raises(DomainError):
        HodgeValueKey("x", 0, 4)
    with pytest.raises(DomainError):
        HodgeValueKey("D", -1, 4)
    with pytest.raises(DomainError):
        HodgeValueKey("D", 0, 5)
    with pytest.raises(DomainError):
        HodgeValueKey("D", 0, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: closed_D(2, 8.0), id="closed_D-k"),
    pytest.param(lambda: closed_d(1.5, 8), id="closed_d-i"),
    pytest.param(lambda: recursive_D(2, 8.0), id="recursive_D-k"),
    pytest.param(lambda: recursive_D(1.0, 4), id="recursive_D-i"),
    pytest.param(lambda: table(8.0), id="table"),
    pytest.param(lambda: localization.graph_family("A", 8.0),
                 id="graph_family"),
    pytest.param(lambda: HodgeValueKey("d", 1, 6.0), id="key"),
    pytest.param(lambda: symmetric.gen_product([1, 3], 1.0),
                 id="gen_product-sign"),
    pytest.param(lambda: symmetric.gen_product([1, 3], -1.0),
                 id="gen_product-negative-sign"),
])
def test_non_integer_index_or_k_is_a_domain_error(call):
    # cached now, so closed_D(2, 8.0), equal as a cache key, must not hit it
    assert closed_D(2, 8) == Fraction(23, 8)
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: HodgeValueKey("D", True, 4), id="key"),
    pytest.param(lambda: closed_D(True, 4), id="closed_D"),
    pytest.param(lambda: recursive_d(False, 4), id="recursive_d"),
    pytest.param(lambda: identities.Q_poly(True), id="Q_poly"),
    pytest.param(lambda: localization.enumerate_family("B", 4, True),
                 id="enumerate_family"),
    pytest.param(lambda: values.closed_families(True, 4),
                 id="closed_families"),
    pytest.param(lambda: values.recursion_step(
        "D", 6, *values.closed_families(2, 6), True), id="recursion_step"),
    pytest.param(lambda: localization.vertex_integral(4, True, 1, 1),
                 id="vertex_integral-untwisted"),
    pytest.param(lambda: localization.vertex_integral(4, 0, True, 0),
                 id="vertex_integral-psi"),
    pytest.param(lambda: symmetric.gen_product([1, 3], sign=True),
                 id="gen_product-sign"),
])
def test_a_bool_is_no_integer_argument(call):
    # each of these returned a value, as if True were 1 and False 0; and
    # closed_D(True, 4) cached its own entry beside closed_D(1, 4)
    cached = closed_D.cache_info().currsize
    with pytest.raises(DomainError):
        call()
    assert closed_D.cache_info().currsize == cached


# ---------------------------------------------------------------------------
# recursions


def test_recursive_examples():
    assert recursive_d(1, 4) == HALF
    assert recursive_D(1, 6) == 1
    assert recursive_d(2, 8) == Fraction(11, 2)
    assert recursive_D(0, 18) == HALF  # base-case delegation
    assert recursive_d(0, 18) == HALF


def test_recursion_rejects_odd_k():
    with pytest.raises(DomainError):
        recursive_D(1, 7)
    with pytest.raises(DomainError):
        recursive_d(1, 7)


def test_families_hold_plain_ints(monkeypatch):
    # a Fraction(1) base value would turn every product it meets into
    # Fraction arithmetic
    built = []
    genuine = MemoTable.families

    def spy(self, cap, k_max):
        built.append(genuine(self, cap, k_max))
        return built[-1]

    monkeypatch.setattr(MemoTable, "families", spy)
    table(40)
    recursive_D(3, 60, MemoTable())
    assert len(built) == 2
    for D, d in built:
        for family in (*D.values(), *d.values()):
            assert all(type(c) is int for c in family)


@pytest.mark.parametrize("k", range(4, 25, 2))
def test_cross_oracle_closed_equals_recursive(k):
    memo = MemoTable()
    for i in range((k - 2) // 2 + 1):
        assert recursive_D(i, k, memo) == closed_D(i, k)
        assert recursive_d(i, k, memo) == closed_d(i, k)


def test_memo_warm_equals_cold():
    warm = MemoTable()
    first = recursive_D(4, 16, warm)
    assert recursive_D(4, 16, warm) == first
    assert recursive_D(4, 16, MemoTable()) == first
    assert recursive_D(4, 16) == first


def test_warm_memo_answers_without_rebuilding(monkeypatch):
    memo = MemoTable()
    first = recursive_d(3, 30, memo)
    calls = []

    def counting_base_value(key):
        calls.append(key)
        return base_value(key)

    monkeypatch.setattr(values, "base_value", counting_base_value)
    assert recursive_d(3, 30, memo) == first  # the stored value
    assert recursive_D(2, 24, memo) == closed_D(2, 24)  # the held families
    # each query looks up only its own key's base value
    assert calls == [HodgeValueKey("d", 3, 30), HodgeValueKey("D", 2, 24)]


def test_memo_shared_between_threads():
    memo = MemoTable()
    queries = [(kind, i, k) for k in range(6, 41, 2)
               for i in range(1, (k - 2) // 2 + 1) for kind in "Dd"]
    failures = []

    def worker(offset):
        for kind, i, k in queries[offset:] + queries[:offset]:
            recursive = recursive_D if kind == "D" else recursive_d
            closed = closed_D if kind == "D" else closed_d
            try:
                if recursive(i, k, memo) != closed(i, k):
                    failures.append((kind, i, k))
            except Exception as exc:  # a thread's error would be lost
                failures.append((kind, i, k, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(7 * n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def scratch_closed_family(kind, k, degree):
    """The closed family at k as one truncated product built from scratch."""
    offset = 1 if kind == "D" else 0
    factors = [(2 * n - offset, 1) for n in range(1, k // 2)]
    return [c for c, _ in kernels.linear_product(factors, max_degree=degree)]


@pytest.mark.parametrize("kind", ["D", "d"])
@pytest.mark.parametrize("degree", [0, 5, 39, 45])
def test_closed_families_are_products_built_from_scratch(kind, degree):
    D, d = values.closed_families(degree, 80)
    family = D if kind == "D" else d
    assert list(family) == list(range(2, 81, 2))
    for k in range(2, 81, 2):
        cut = min(degree, (k - 2) // 2)
        expected = scratch_closed_family(kind, k, cut)
        assert len(expected) == cut + 1
        assert family[k] == expected, k


def test_closed_families_have_the_recursion_shape():
    for degree, k_max in ((0, 2), (1, 4), (3, 20), (12, 30)):
        closed = values.closed_families(degree, k_max)
        recursive = MemoTable().families(degree, k_max)
        assert closed == recursive, (degree, k_max)


@pytest.mark.parametrize("build", [
    pytest.param(values.closed_families, id="closed"),
    pytest.param(lambda degree, k_max: MemoTable().families(degree, k_max),
                 id="recursive"),
])
@pytest.mark.parametrize("degree, k_max", [
    (-1, 8), (2, 7), (2, 0), (2, 8.0), (1.0, 8), (True, 8), (2, True)])
def test_both_family_builders_refuse_the_same_bad_bounds(build, degree,
                                                         k_max):
    with pytest.raises(DomainError):
        build(degree, k_max)


def test_recursion_never_reads_the_closed_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("the recursion read the closed form")

    for name in ("closed_families", "closed_D", "closed_d"):
        monkeypatch.setattr(values, name, refuse)
    assert recursive_d(2, 8, MemoTable()) == Fraction(11, 2)
    # e_3(1, 3, ..., 21) = 197835 by subset enumeration, frozen
    assert recursive_D(3, 24, MemoTable()) == Fraction(197835, 16)


def split_by_split_step(kind, k, D, d):
    """The recursion step as the module docstring writes it, at degree g.

    One signed split product per j, each a plain lambda-class splitting
    sum: no kernels, no mirror pairing.
    """
    top = k - 3 if kind == "D" else k - 2
    total = [0] * (k // 2)
    for j in range(1, top + 1):
        if kind == "D":
            v, w = (d[k - 1 - j], d[j + 1]) if j % 2 else (D[k - j], D[j + 2])
        else:
            v, w = (D[k + 1 - j], D[j + 1]) if j % 2 else (d[k - j], d[j])
        scale = comb(top, j) if j % 2 else -comb(top, j)
        for i in range(len(total)):
            total[i] += scale * sum((-1) ** ell * v[i - ell] * w[ell]
                                    for ell in range(i + 1)
                                    if i - ell < len(v) and ell < len(w))
    return total


def closed_families_with_fractions():
    # a non-integer coefficient in each kind, as an injected fault leaves
    D, d = values.closed_families(30, 60)
    D[6] = D[6][:1] + [Fraction(17, 3)] + D[6][2:]
    d[8] = d[8][:2] + [Fraction(-5, 7)] + d[8][3:]
    return D, d


@pytest.mark.parametrize("families, faulty", [
    pytest.param(lambda: values.closed_families(30, 60), False, id="closed"),
    pytest.param(closed_families_with_fractions, True, id="fraction"),
])
@pytest.mark.parametrize("kind", ["D", "d"])
def test_paired_step_equals_split_by_split_sum(families, faulty, kind):
    D, d = families()
    for k in range(4, 61, 2):  # the step starts at k = 4
        expected = split_by_split_step(kind, k, D, d)
        for degree in range((k - 2) // 2 + 1):
            step = values.recursion_step(kind, k, D, d, degree)
            assert step == expected[:degree + 1], (kind, k, degree)
    # the fault reaches the step's output as a non-integer coefficient
    step = values.recursion_step(kind, 12, D, d, 5)
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for c in step) == faulty


@pytest.mark.parametrize("kind, pairs", [("D", lambda k: (k - 2) // 2),
                                         ("d", lambda k: k // 2)])
def test_step_runs_one_convolution_per_mirror_pair(monkeypatch, kind, pairs):
    calls = []

    def counting(a, b, degree=None):
        calls.append(degree)
        return genuine(a, b, degree)

    genuine = kernels.convolve
    monkeypatch.setattr(kernels, "convolve", counting)
    D, d = values.closed_families(19, 40)
    for k in range(4, 41, 2):
        calls.clear()
        values.recursion_step(kind, k, D, d, (k - 2) // 2)
        assert len(calls) == pairs(k), (kind, k)


def test_step_rejects_bad_kind_k_and_degree():
    # "x" gave the d step and an odd k a bare KeyError
    D, d = values.closed_families(3, 10)
    assert values.recursion_step("d", 8, D, d, 3) == d[8]
    for kind, k, degree in (("x", 8, 3), ("A", 8, 3), ("D", 7, 3),
                            ("d", 9, 3), ("D", 2, 0), ("d", 8.0, 3),
                            ("D", 8, -1), ("d", 8, 2.0)):
        with pytest.raises(DomainError):
            values.recursion_step(kind, k, D, d, degree)


# ---------------------------------------------------------------------------
# the table


def test_table_k4():
    rows = table(4)
    assert [(r[0].kind, r[0].i, r[0].k, r[1]) for r in rows] == [
        ("D", 0, 4, HALF),
        ("D", 1, 4, Fraction(1, 4)),
        ("d", 0, 4, HALF),
        ("d", 1, 4, HALF),
    ]


def test_table_contains_derived_value():
    rows = dict(table(6))
    assert rows[HodgeValueKey("D", 1, 6)] == 1


@pytest.mark.parametrize("max_k", [4, 8, 14])
def test_table_row_count(max_k):
    expected = sum(k for k in range(4, max_k + 1, 2))  # 2 * sum of k/2
    assert len(table(max_k)) == expected


def test_table_is_sorted_by_kind_k_i():
    rows = table(10)
    keys = [(r[0].kind, r[0].k, r[0].i) for r in rows]
    assert keys == sorted(keys)


def test_table_rejects_bad_bounds():
    with pytest.raises(DomainError):
        table(5)
    with pytest.raises(DomainError):
        table(2)


@pytest.mark.parametrize("key, injected, expected", [
    # a base value the recursion never computes
    pytest.param(HodgeValueKey("D", 1, 4), Fraction(1, 5), Fraction(1, 4),
                 id="D-1-4"),
    # a value the recursion computes, which later D values read: the
    # mismatch must be reported here, not at a D value downstream of it
    pytest.param(HodgeValueKey("d", 1, 6), Fraction(7, 2), Fraction(3, 2),
                 id="d-1-6"),
])
def test_fault_injection_is_detected(inject_base_value, key, injected,
                                     expected):
    inject_base_value(key, injected)
    with pytest.raises(VerificationError) as err:
        table(8)
    report = err.value.report
    assert report.parameters == (("kind", key.kind), ("i", key.i),
                                 ("k", key.k))
    # computed: the recursive value; expected: the closed one
    assert (report.computed, report.expected) == (injected, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(0, 9))
def test_recursion_agrees_with_closed_forms_property(g, i):
    k = 2 * g + 2
    assert recursive_D(i, k) == closed_D(i, k)
    assert recursive_d(i, k) == closed_d(i, k)


@pytest.mark.parametrize("recursive, closed, i", [
    (recursive_D, closed_D, 2),
    (recursive_d, closed_d, 3),
])
def test_cold_deep_query_needs_no_call_stack(recursive, closed, i):
    # the families are built in a loop, so k = 400 is as safe as k = 8
    start = time.perf_counter()
    assert recursive(i, 400) == closed(i, 400)
    assert time.perf_counter() - start < 5.0


def reference_value(kind, i, k, memo):
    """The docstring recursion, one Fraction at a time, memoised in ``memo``.

    Independent of the integer core: per-scalar signed splits, no scaling,
    no polynomial products.
    """
    key = (kind, i, k)
    if key in memo:
        return memo[key]
    if i > (k - 2) // 2:
        value = Fraction(0)
    elif i == 0:
        value = HALF
    elif key == ("D", 1, 4):
        value = Fraction(1, 4)
    else:
        def split(kind1, k1, kind2, k2):
            return sum((-1) ** ell * reference_value(kind1, i - ell, k1, memo)
                       * reference_value(kind2, ell, k2, memo)
                       for ell in range(i + 1))

        if kind == "D":
            odd = sum(comb(k - 3, j) * split("d", k - 1 - j, "d", j + 1)
                      for j in range(1, k - 2, 2))
            even = sum(comb(k - 3, j) * split("D", k - j, "D", j + 2)
                       for j in range(2, k - 3, 2))
        else:
            odd = sum(comb(k - 2, j) * split("D", k - j + 1, "D", j + 1)
                      for j in range(1, k - 2, 2))
            even = sum(comb(k - 2, j) * split("d", k - j, "d", j)
                       for j in range(2, k - 1, 2))
        value = 2 * odd - 2 * even
    memo[key] = value
    return value


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_core_agrees_with_fraction_reference(data):
    g = data.draw(st.integers(0, 11), label="g")  # k = 2g + 2 <= 24
    i = data.draw(st.integers(0, g + 1), label="i")
    k = 2 * g + 2
    memo = {}
    assert recursive_D(i, k) == reference_value("D", i, k, memo)
    assert recursive_d(i, k) == reference_value("d", i, k, memo)
