"""Closed forms, recursions and the cross-checked table."""

import ast
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhodge import identities, kernels, localization, symmetric, values
from hyperhodge.errors import DomainError, VerificationError
from hyperhodge.values import (base_value, closed_D, closed_d, recursive_D,
                               recursive_d, recursive_families, table)

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
    assert base_value(("D", 0, 2)) == HALF
    assert base_value(("d", 0, 2)) == HALF
    assert base_value(("D", 1, 4)) == Fraction(1, 4)
    assert base_value(("d", 3, 6)) == 0  # i=3 > g=2
    assert base_value(("D", 5, 2)) == 0
    assert base_value(("d", 1, 4)) is None
    assert base_value(("D", 1, 6)) is None


def test_base_value_answers_a_plain_tuple_as_its_key():
    answers = set()
    for kind, i, k in product("Dd", range(8), range(2, 13, 2)):
        plain = base_value((kind, i, k))
        rule = (0 if i > (k - 2) // 2 else HALF if i == 0
                else Fraction(1, 4) if (kind, i, k) == ("D", 1, 4) else None)
        assert plain == rule, (kind, i, k)
        answers.add(plain)
    # i > g, i = 0, D(1, 4), and the recursion's keys: every rule reached
    assert answers == {0, HALF, Fraction(1, 4), None}


def test_memo_build_offers_plain_tuples_in_build_order(monkeypatch):
    calls = []

    def counting_base_value(key):
        calls.append(key)
        return base_value(key)

    monkeypatch.setattr(values, "base_value", counting_base_value)
    recursive_families(4, 30)
    # every coefficient at each k, ascending, D's before d's
    assert calls == [(kind, i, k) for k in range(2, 31, 2) for kind in "Dd"
                     for i in range(min(4, (k - 2) // 2) + 1)]
    assert {type(key) for key in calls} == {tuple}


def test_key_validation():
    with pytest.raises(DomainError):
        recursive_D(-1, 4)
    with pytest.raises(DomainError):
        recursive_D(0, 5)
    with pytest.raises(DomainError):
        recursive_D(0, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: closed_D(2, 8.0), id="closed_D-k"),
    pytest.param(lambda: closed_d(1.5, 8), id="closed_d-i"),
    pytest.param(lambda: recursive_D(2, 8.0), id="recursive_D-k"),
    pytest.param(lambda: recursive_D(1.0, 4), id="recursive_D-i"),
    pytest.param(lambda: table(8.0), id="table"),
    pytest.param(lambda: localization.graph_family("A", 8.0),
                 id="graph_family"),
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
    pytest.param(lambda: closed_D(True, 4), id="closed_D"),
    pytest.param(lambda: recursive_d(False, 4), id="recursive_d"),
    pytest.param(lambda: identities.Q_poly(True), id="Q_poly"),
    pytest.param(lambda: localization.enumerate_family("B", 4, True),
                 id="enumerate_family"),
    pytest.param(lambda: values.closed_families(True, 4),
                 id="closed_families"),
    pytest.param(lambda: next(values.recursion_steps(
        6, *values.closed_families(2, 6), True)), id="recursion_steps"),
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
    genuine = recursive_families

    def spy(degree, k_max):
        built.append(genuine(degree, k_max))
        return built[-1]

    monkeypatch.setattr(values, "recursive_families", spy)
    table(40)
    recursive_D(3, 60)
    assert len(built) == 2
    for D, d in built:
        for family in (*D.values(), *d.values()):
            assert all(type(c) is int for c in family)


@pytest.mark.parametrize("k", range(4, 25, 2))
def test_cross_oracle_closed_equals_recursive(k):
    for i in range((k - 2) // 2 + 1):
        assert recursive_D(i, k) == closed_D(i, k)
        assert recursive_d(i, k) == closed_d(i, k)


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
        recursive = recursive_families(degree, k_max)
        assert closed == recursive, (degree, k_max)


@pytest.mark.parametrize("build", [
    pytest.param(values.closed_families, id="closed"),
    pytest.param(recursive_families, id="recursive"),
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

    for name in ("closed_families", "_closed_chain", "closed_D", "closed_d"):
        monkeypatch.setattr(values, name, refuse)
    assert recursive_d(2, 8) == Fraction(11, 2)
    # e_3(1, 3, ..., 21) = 197835 by subset enumeration, frozen
    assert recursive_D(3, 24) == Fraction(197835, 16)


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
    # one call yields both kinds; this case checks the one named by kind
    D, d = families()
    for k in range(4, 61, 2):  # the step starts at k = 4
        expected = split_by_split_step(kind, k, D, d)
        for degree in range((k - 2) // 2 + 1):
            step = dict(zip("Dd", values.recursion_steps(k, D, d, degree)))
            assert step[kind] == expected[:degree + 1], (kind, k, degree)
    # the fault reaches the step's output as a non-integer coefficient
    step = dict(zip("Dd", values.recursion_steps(12, D, d, 5)))[kind]
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for c in step) == faulty


def counting_convolutions(monkeypatch):
    calls = []

    def counting(a, b, degree=None):
        calls.append(degree)
        return genuine(a, b, degree)

    genuine = kernels.convolve
    monkeypatch.setattr(kernels, "convolve", counting)
    return calls


@pytest.mark.parametrize("kind, pairs", [("D", lambda k: (k - 2) // 2),
                                         ("d", lambda k: k // 2)])
def test_step_runs_one_convolution_per_mirror_pair(monkeypatch, kind, pairs):
    # A_k alone takes (k-2)/2 products; a_k adds only its split 1, so both
    # kinds together take k/2, where two separate steps took k - 1
    calls = counting_convolutions(monkeypatch)
    D, d = values.closed_families(19, 40)
    for k in range(4, 41, 2):
        calls.clear()
        steps = values.recursion_steps(k, D, d, (k - 2) // 2)
        for _ in range("Dd".index(kind) + 1):  # A_k, then a_k for "d"
            next(steps)
        assert len(calls) == pairs(k), (kind, k)


def test_memo_build_runs_k_over_2_convolutions_per_k(monkeypatch):
    calls = counting_convolutions(monkeypatch)
    recursive_families(29, 60)
    assert len(calls) == sum(k // 2 for k in range(4, 61, 2))


def test_eqn_check_runs_one_convolution_per_mirror_pair(monkeypatch):
    # eqn_check takes A_k only and never pays for a_k
    calls = counting_convolutions(monkeypatch)
    for g in range(2, 30):
        calls.clear()
        assert identities.eqn_check(g).passed
        assert len(calls) == g, g  # (k - 2) / 2 at k = 2g + 2


def test_step_rejects_bad_kind_k_and_degree():
    # the per-kind call form (a kind before k) is refused, as are an odd,
    # small or non-int k and a negative or non-int degree
    D, d = values.closed_families(3, 10)
    assert list(values.recursion_steps(8, D, d, 3)) == [D[8], d[8]]
    for args in (("x", 8, D, d, 3), ("D", 8, D, d, 3), (7, D, d, 3),
                 (9, D, d, 3), (2, D, d, 0), (8.0, D, d, 3), (8, D, d, -1),
                 (8, D, d, 2.0), (True, D, d, 3)):
        with pytest.raises(DomainError):
            next(values.recursion_steps(*args))


def split_by_split_build(cap, k_max):
    """recursive_families' build with the split-by-split step, A_k first."""
    D, d = {}, {}
    for k in range(2, k_max + 1, 2):
        degree = min(cap, (k - 2) // 2)
        for kind, family in (("D", D), ("d", d)):
            base = [values._scaled_base(kind, i, k) for i in range(degree + 1)]
            if None in base:
                step = split_by_split_step(kind, k, D, d)
                base = [s if c is None else c for c, s in zip(base, step)]
            family[k] = base
    return D, d


def test_a_k_reads_A_k_as_stored_with_its_base_values(inject_base_value):
    # D(2, 10) is a value the recursion computes; injected, A_10 carries it,
    # and a_10's split 1, A_10(t) * A_2(-t), must carry it on into d(2, 10):
    # a step that read its own A_10 instead would leave d_10 genuine
    inject_base_value(("D", 2, 10), Fraction(7, 3))
    D, d = recursive_families(4, 14)
    assert (D, d) == split_by_split_build(4, 14)
    closed_D, closed_d = values.closed_families(4, 14)
    assert D[10][2] == 2 ** 3 * Fraction(7, 3) != closed_D[10][2]
    wrong = [i for i in range(5) if d[10][i] != closed_d[10][i]]
    assert wrong == [2]
    assert D[12] != closed_D[12] and d[12] != closed_d[12]


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 5, 79])
def test_recursion_equals_the_closed_families_to_k160(cap):
    assert recursive_families(cap, 160) == values.closed_families(cap, 160)


def test_one_function_runs_the_split_products():
    # a second copy of the step would split the code eqn_check pins
    def calls(node, name):
        return any(isinstance(n, ast.Call)
                   and getattr(n.func, "attr", getattr(n.func, "id", None))
                   == name for n in ast.walk(node))

    def functions(module):  # module functions and methods, not nested ones
        tree = ast.parse(Path(module.__file__).read_text())
        outer = [*tree.body, *(node for cls in tree.body
                               if isinstance(cls, ast.ClassDef)
                               for node in cls.body)]
        return {node.name: node for node in outer
                if isinstance(node, ast.FunctionDef)}

    defs = functions(values)
    convolving = [name for name, node in defs.items()
                  if calls(node, "convolve")]
    assert convolving == ["recursion_steps"]
    assert calls(defs["recursive_families"], "recursion_steps")
    assert calls(functions(identities)["eqn_check"], "recursion_steps")


def test_values_defines_no_class():
    # the recursion is a pure family builder: no table held between
    # queries, no record per key, no function taking one
    tree = ast.parse(Path(values.__file__).read_text())
    classes = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    assert classes == []
    memo = [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and "memo" in [arg.arg for arg in node.args.args]]
    assert memo == []


# ---------------------------------------------------------------------------
# the table


def test_table_k4():
    rows = table(4)
    assert [(*key, value) for key, value in rows] == [
        ("D", 0, 4, HALF),
        ("D", 1, 4, Fraction(1, 4)),
        ("d", 0, 4, HALF),
        ("d", 1, 4, HALF),
    ]


def test_table_contains_derived_value():
    rows = dict(table(6))
    assert rows[("D", 1, 6)] == 1


@pytest.mark.parametrize("max_k", [4, 8, 14])
def test_table_row_count(max_k):
    expected = sum(k for k in range(4, max_k + 1, 2))  # 2 * sum of k/2
    assert len(table(max_k)) == expected


def test_table_is_sorted_by_kind_k_i():
    rows = table(10)
    keys = [(kind, k, i) for (kind, i, k), _ in rows]
    assert keys == sorted(keys)


def test_table_makes_no_value_keys():
    # a row's key is a plain (kind, i, k) tuple, no record
    rows = table(40)
    assert {type(key) for key, _ in rows} == {tuple}
    assert len(rows) == sum(range(4, 41, 2))


def test_table_rejects_bad_bounds():
    with pytest.raises(DomainError):
        table(5)
    with pytest.raises(DomainError):
        table(2)


@pytest.mark.parametrize("key, injected, expected", [
    # a base value the recursion never computes
    pytest.param(("D", 1, 4), Fraction(1, 5), Fraction(1, 4),
                 id="D-1-4"),
    # a value the recursion computes, which later D values read: the
    # mismatch must be reported here, not at a D value downstream of it
    pytest.param(("d", 1, 6), Fraction(7, 2), Fraction(3, 2),
                 id="d-1-6"),
])
def test_fault_injection_is_detected(inject_base_value, key, injected,
                                     expected):
    inject_base_value(key, injected)
    with pytest.raises(VerificationError) as err:
        table(8)
    report = err.value.report
    assert report.parameters == tuple(zip(("kind", "i", "k"), key))
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
