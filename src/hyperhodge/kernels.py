"""Integer polynomial arithmetic, plus two rational-pair adapters.

A polynomial is a coefficient list indexed by degree.  ``convolve`` and
``times_linear`` (a product with 1 + c*t) are the package's only
polynomial-product loops; callers pass plain ints, and a ``Fraction``
passes through by ordinary arithmetic.

``poly_mul`` and ``linear_product`` exist only for the benchmark tracer,
which wraps them and reads their arguments and results as canonical
``(num, den)`` pairs (``den > 0``, ``gcd(|num|, den) == 1``, zero is
``(0, 1)``).  They take pairs in as ``Fraction``s, run the product through
the two loops above and hand pairs back.  No module of the package calls
them: ``values``, ``identities`` and ``localization`` pass the two loops
plain ints, and only ``algebra`` and ``symmetric`` pass ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


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


def poly_mul(a, b):
    """Exact convolution of two dense rational-pair polynomials."""
    product = convolve([Fraction(n, d) for n, d in a],
                       [Fraction(n, d) for n, d in b])
    return [(c.numerator, c.denominator) for c in product]


def linear_product(constants, max_degree=None):
    """Coefficients of ``prod_j (1 + c_j * t)`` as rational pairs.

    ``constants`` is a sequence of rational pairs; the empty product is
    ``[(1, 1)]``.  With ``max_degree`` given, coefficients above that degree
    are dropped (the kept ones are unaffected: the recurrence is triangular).
    """
    if max_degree is not None and max_degree < 0:
        return []
    coeffs = [1]
    for n, d in constants:
        coeffs = times_linear(coeffs, Fraction(n, d), max_degree)
    return [(c.numerator, c.denominator) for c in coeffs]
