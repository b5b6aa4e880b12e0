"""Alternating binomial identities and the vanishing polynomials."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhodge import identities, kernels
from hyperhodge.algebra import DensePolynomial
from hyperhodge.errors import DomainError, IdentityReport, VerificationError
from hyperhodge.identities import (P_poly, Q_poly, alternating_power_sum,
                                   alternating_power_sums, eqn_check,
                                   hat_root_values, hat_transform,
                                   product_vanishing_sum,
                                   product_vanishing_sums)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=10)


# ---------------------------------------------------------------------------
# alternating power sums


def test_alternating_power_sum_examples():
    assert alternating_power_sum(3, 1) == 0      # 0 - 3 + 6 - 3
    assert alternating_power_sum(4, 2) == 0      # -4 + 24 - 36 + 16
    assert alternating_power_sum(1, 1) == -1     # 0 - 1: the sharp boundary
    assert alternating_power_sum(0, 0) == 1      # 0**0 = 1 convention
    assert alternating_power_sum(2, 2) == 2


def test_alternating_power_sum_classical_range():
    for m in range(31):
        for p in range(m):
            assert alternating_power_sum(m, p) == 0, (m, p)


def test_alternating_power_sum_nonzero_at_p_equal_m():
    # at p = m the sum is (-1)**m * m!, never zero
    import math
    for m in range(1, 9):
        assert alternating_power_sum(m, m) == (-1) ** m * math.factorial(m)


def test_alternating_power_sum_domain():
    with pytest.raises(DomainError):
        alternating_power_sum(-1, 0)
    with pytest.raises(DomainError):
        alternating_power_sum(0, -1)
    with pytest.raises(DomainError):
        alternating_power_sums(-1, 0)
    with pytest.raises(DomainError):
        alternating_power_sums(0, -1)


def reference_power_sum(m, p):
    """sum((-1)**k * C(m, k) * k**p), each term from comb and pow."""
    return sum((-1) ** k * comb(m, k) * k ** p for k in range(m + 1))


def test_alternating_power_sums_match_the_term_by_term_reference():
    for m in range(46):
        expected = [reference_power_sum(m, p) for p in range(m + 3)]
        assert alternating_power_sums(m, m + 2) == expected, m
        assert [alternating_power_sum(m, p) for p in range(m + 3)] == expected


# ---------------------------------------------------------------------------
# product vanishing sums


def test_product_vanishing_examples():
    assert product_vanishing_sum([Fraction(7, 3)], 2) == 0
    assert product_vanishing_sum([Fraction(5)], 1) == 1   # 5 - 4: boundary
    assert product_vanishing_sum([Fraction(1, 2), Fraction(9)], 3) == 0


@settings(deadline=None)
@given(st.lists(rationals, min_size=1, max_size=10))
def test_product_vanishing_even_bound(values):
    assert product_vanishing_sum(values, 2 * len(values)) == 0


@settings(deadline=None)
@given(st.lists(rationals, min_size=2, max_size=10))
def test_product_vanishing_odd_bound(values):
    assert product_vanishing_sum(values, 2 * len(values) - 1) == 0


def reference_routes(values, bound):
    """Both routes of the sum in Fraction arithmetic, term by term."""
    direct = Fraction(0)
    for k in range(bound + 1):
        product = Fraction((-1) ** k * comb(bound, k))
        for v in values:
            product *= v - k
        direct += product
    e = [Fraction(1)]  # e_0..e_n of the values
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    n = len(values)
    expanded = sum(((-1) ** r * e[n - r] * reference_power_sum(bound, r)
                    for r in range(n + 1)), Fraction(0))
    return direct, expanded


draw_values = st.lists(
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 20)),
    min_size=1, max_size=10)


@settings(deadline=None)
@given(draw_values, st.booleans())
def test_product_vanishing_matches_fraction_routes(values, odd):
    bound = 2 * len(values) - 1 if odd else 2 * len(values)
    direct, expanded = reference_routes(values, bound)
    assert direct == expanded
    assert product_vanishing_sum(values, bound) == direct


def test_product_vanishing_batch_matches_per_draw_references():
    draws = [[Fraction(-99, 20), Fraction(7), Fraction(0)],
             [Fraction(1, 3), Fraction(-2, 9), Fraction(5, 6)],
             [3, Fraction(-17, 4), 0],
             [Fraction(88, 13), Fraction(88, 13), Fraction(-1, 20)]]
    for bound in (5, 6):
        sums = list(product_vanishing_sums(iter(draws), bound))
        assert sums == [reference_routes(d, bound)[0] for d in draws]
        assert sums == [product_vanishing_sum(d, bound) for d in draws]
        assert all(s == 0 for s in sums)
    assert list(product_vanishing_sums([], 3)) == []


def test_product_vanishing_route_disagreement_raises(monkeypatch):
    real = identities.alternating_power_sums
    monkeypatch.setattr(
        identities, "alternating_power_sums",
        lambda m, p_max: [s + (p == 0) for p, s in enumerate(real(m, p_max))])
    values = [Fraction(1, 3), Fraction(-2)]
    with pytest.raises(VerificationError) as caught:
        product_vanishing_sum(values, 3)
    report = caught.value.report
    assert report.parameters == (("values", tuple(values)), ("bound", 3))
    # expected: the direct route; computed: the expanded one, whose r = 0
    # term gained e_2(values) = -2/3
    assert report.expected == reference_routes(values, 3)[0] == 0
    assert report.computed == Fraction(-2, 3)
    assert str(caught.value) == report.describe()


def test_product_vanishing_bound_validation():
    with pytest.raises(DomainError):
        product_vanishing_sum([Fraction(1)], 3)
    with pytest.raises(DomainError):
        product_vanishing_sum([], 0)
    with pytest.raises(DomainError):
        list(product_vanishing_sums([[Fraction(1)], [Fraction(1), 2]], 2))
    with pytest.raises(DomainError):
        product_vanishing_sum([1.5], 2)
    with pytest.raises(DomainError):
        product_vanishing_sum(["1/2"], 2)
    with pytest.raises(DomainError):
        list(product_vanishing_sums([[Fraction(1)], [0.5]], 2))
    with pytest.raises(DomainError):
        list(product_vanishing_sums([[Fraction(1)], ["3"]], 2))
    with pytest.raises(DomainError):
        product_vanishing_sum([True], 2)


@pytest.mark.parametrize("call, args", [
    (alternating_power_sum, (2.0, 1)),
    (alternating_power_sum, (3, 1.0)),
    (alternating_power_sums, (2.0, 1)),
    (alternating_power_sums, (3, 1.0)),
    (P_poly, (2.0,)),
    (Q_poly, (1.5,)),
    (eqn_check, (3.0,)),
    (hat_root_values, (2.0,)),
    (hat_transform, (DensePolynomial([1]), 2.0)),
    (product_vanishing_sum, ([1, 2], 3.0)),
    (lambda *args: list(product_vanishing_sums(*args)), ([[1, 2]], 3.0)),
])
def test_non_integer_parameters_are_domain_errors(call, args):
    with pytest.raises(DomainError):
        call(*args)


# ---------------------------------------------------------------------------
# the polynomial identities


def test_eqn_check_small_genus():
    for g in (2, 3, 4, 5):
        report = eqn_check(g)
        assert report.passed
        assert report.computed == report.expected
    with pytest.raises(DomainError):
        eqn_check(1)


def test_eqn_check_report_contents():
    report = eqn_check(3)
    assert isinstance(report, IdentityReport)
    assert ("g", 3) in report.parameters
    assert "pass" in report.describe()
    # the shared value is the odd generating product
    assert report.expected == DensePolynomial([1, 9, 23, 15])  # (1+t)(1+3t)(1+5t)


def test_P_poly_vanishes_from_two():
    for g in range(2, 26):
        assert P_poly(g).is_zero(), g


def test_P_poly_boundary_is_t():
    assert P_poly(1) == DensePolynomial([0, 1])
    with pytest.raises(DomainError):
        P_poly(0)


def test_P_poly_g2_by_hand():
    # (1+4t+3t^2) - 3(1+2t) + 3(1-t^2) - (1-2t) = 0
    by_hand = (DensePolynomial([1, 4, 3]) - 3 * DensePolynomial([1, 2])
               + 3 * DensePolynomial([1, 0, -1]) - DensePolynomial([1, -2]))
    assert by_hand.is_zero()
    assert P_poly(2) == by_hand


def test_Q_poly_vanishes_from_one():
    for g in range(1, 26):
        assert Q_poly(g).is_zero(), g
    with pytest.raises(DomainError):
        Q_poly(0)


def scratch_alternating_sum(order, top, g):
    """The P/Q sum with every product built from scratch."""
    total = DensePolynomial()
    for j in range(order + 1):
        block = kernels.linear_product(
            [(top - j - 2 * (n - 1), 1) for n in range(1, g + 1)])
        total = total + (-1) ** j * comb(order, j) * DensePolynomial(
            [c for c, _ in block])
    return total


def test_P_and_Q_match_products_built_from_scratch():
    for g in range(1, 31):
        assert P_poly(g) == scratch_alternating_sum(2 * g - 1, 2 * g - 1, g)
        assert Q_poly(g) == scratch_alternating_sum(2 * g, 2 * g + 1, g)


def test_window_blocks_are_the_products_built_from_scratch():
    for g in range(1, 31):
        for order, top in ((2 * g - 1, 2 * g - 1), (2 * g, 2 * g + 1)):
            blocks = list(identities._window_blocks(order, top, g))
            assert len(blocks) == order + 1
            for j, block in enumerate(blocks):
                scratch = kernels.linear_product(
                    [(top - j - 2 * n, 1) for n in range(g)])
                assert block == [c for c, _ in scratch], (g, top, j)


def test_exact_division_by_a_linear_factor():
    # (1 + 2t)(1 - 3t) = 1 - t - 6t^2
    assert identities._divide_linear([1, -1, -6], 2) == [1, -3]
    assert identities._divide_linear([1, -1, -6], -3) == [1, 2]
    with pytest.raises(VerificationError) as caught:
        identities._divide_linear([1, -1, -5], 2)
    report = caught.value.report
    assert report.parameters == (("coefficients", (1, -1, -5)), ("c", 2))
    assert (report.computed, report.expected) == (1, 0)  # the remainder


def test_Q_poly_g1_by_hand():
    by_hand = (DensePolynomial([1, 3]) - 2 * DensePolynomial([1, 2])
               + DensePolynomial([1, 1]))
    assert by_hand.is_zero()
    assert Q_poly(1) == by_hand


def test_eqn_equivalent_to_P_vanishing():
    for g in range(2, 11):
        assert eqn_check(g).passed == P_poly(g).is_zero()


# ---------------------------------------------------------------------------
# hat transform and the root argument


def test_hat_transform_examples():
    assert hat_transform(DensePolynomial([1, 4, 3]), 2) == DensePolynomial([3, 4, 1])
    assert hat_transform(DensePolynomial(), 5).is_zero()
    assert hat_transform(DensePolynomial([7]), 2) == DensePolynomial([0, 0, 7])
    # degree == g is the largest accepted, the zero polynomial fits g = 0
    assert hat_transform(DensePolynomial([1, 2, 3]), 2) \
        == DensePolynomial([3, 2, 1])
    assert hat_transform(DensePolynomial([5]), 0) == DensePolynomial([5])
    assert hat_transform(DensePolynomial(), 0).is_zero()
    with pytest.raises(DomainError, match=r"^degree 2 exceeds g=1$"):
        hat_transform(DensePolynomial([1, 1, 1]), 1)


@given(st.lists(rationals, max_size=8))
def test_hat_transform_is_an_involution_at_matching_degree(coeffs):
    p = DensePolynomial(coeffs)
    g = 8
    transformed = hat_transform(p, g)
    assert hat_transform(transformed, g) == p


def evaluate(poly, x):
    # by definition: the sum of c_n * x**n over the stored coefficients
    return sum(c * x ** n for n, c in enumerate(poly.coefficients))


def test_hat_transform_matches_direct_substitution():
    p = DensePolynomial([2, 0, 5, 1])
    g = 3
    for x in (1, 2, Fraction(3, 2)):
        assert evaluate(hat_transform(p, g), x) == (
            x ** g * evaluate(p, Fraction(1, x)))


def test_hat_root_values_all_vanish():
    for g in range(2, 13):
        values = hat_root_values(g)
        assert len(values) == g + 1
        assert all(v == 0 for v in values)
    with pytest.raises(DomainError):
        hat_root_values(1)


def test_hat_of_P_poly_evaluates_to_zero_at_claimed_roots():
    for g in range(2, 9):
        hat = hat_transform(P_poly(g), g)
        for x in range(1, g + 2):
            assert evaluate(hat, x) == 0


def test_degree_bound_of_P_poly():
    for g in range(1, 12):
        assert len(P_poly(g).coefficients) <= g + 1
