"""Integer polynomial arithmetic, plus rational-pair adapters.

A polynomial is a coefficient list indexed by degree.  ``convolve`` and
``times_linear`` (a product with 1 + c*t) are the package's only multiply
loops; callers pass plain ints, and a ``Fraction`` passes through by
ordinary arithmetic.  ``poly_mul`` and ``linear_product`` serve the
``Fraction`` types: they take and return canonical ``(num, den)`` pairs
(``den > 0``, ``gcd(|num|, den) == 1``, zero is ``(0, 1)``), clear the
denominators with one lcm, multiply on ints and ``normalize`` the results.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional


def normalize(num, den):
    """Reduce ``num/den`` to canonical form (positive, coprime denominator)."""
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if num == 0:
        return (0, 1)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        return (num // g, den // g)
    return (num, den)


def convolve(a: list, b: list, degree: Optional[int] = None) -> list:
    """a * b, dropping coefficients above ``degree``; [] if either is []."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    if degree is not None and degree < size - 1:
        size = degree + 1
        a, b = a[:size], b[:size]
    out = [0] * size
    for p, x in enumerate(a):
        if x:
            row = b if p + len(b) <= size else b[:size - p]
            for q, y in enumerate(row, p):
                out[q] += x * y
    return out


def times_linear(coeffs: list[int], c: int,
                 degree: Optional[int] = None) -> list[int]:
    """coeffs * (1 + c*t) on ints, dropping coefficients above ``degree``."""
    out = [a + c * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return out if degree is None else out[:degree + 1]


def _cleared(pairs) -> tuple[list[int], int]:
    # integer numerators over the lcm of the denominators, and that lcm
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def poly_mul(a, b):
    """Exact convolution of two dense rational-pair polynomials."""
    ints_a, den_a = _cleared(a)
    ints_b, den_b = _cleared(b)
    den = den_a * den_b
    return [normalize(c, den) for c in convolve(ints_a, ints_b)]


def linear_product(constants, max_degree=None):
    """Coefficients of ``prod_j (1 + c_j * t)`` as rational pairs.

    ``constants`` is a sequence of rational pairs; the empty product is
    ``[(1, 1)]``.  With ``max_degree`` given, coefficients above that degree
    are dropped (the kept ones are unaffected: the recurrence is triangular).
    With C_j = den * c_j on ints, the coefficient of t**i is
    e_i(C) / den**i.
    """
    if max_degree is not None and max_degree < 0:
        return []
    scaled, den = _cleared(constants)
    coeffs = [1]
    for c in scaled:
        coeffs = times_linear(coeffs, c, max_degree)
    return [normalize(e, den ** i) for i, e in enumerate(coeffs)]
