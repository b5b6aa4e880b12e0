"""Arithmetic kernels on exact rational pairs.

A rational is an ``(num, den)`` pair of Python ints in canonical form:
``den > 0`` and ``gcd(|num|, den) == 1`` (zero is ``(0, 1)``).  A dense
polynomial is a list of such pairs indexed by degree.  Everything here is
exact.

The convolution and product loops clear denominators first and work on plain
int lists: one lcm up front beats a gcd reduction per intermediate term.
"""

from __future__ import annotations

from math import gcd, lcm


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


def poly_mul(a, b):
    """Exact convolution of two dense rational-pair polynomials."""
    if not a or not b:
        return []
    den_a = 1
    for _, d in a:
        den_a = lcm(den_a, d)
    den_b = 1
    for _, d in b:
        den_b = lcm(den_b, d)
    ints_a = [n * (den_a // d) for n, d in a]
    ints_b = [n * (den_b // d) for n, d in b]
    la = len(ints_a)
    lb = len(ints_b)
    conv = [0] * (la + lb - 1)
    for i in range(la):
        x = ints_a[i]
        if not x:
            continue
        for j in range(lb):
            y = ints_b[j]
            if y:
                conv[i + j] += x * y
    den = den_a * den_b
    if den == 1:
        return [(c, 1) for c in conv]
    return [normalize(c, den) for c in conv]


def linear_product(constants, max_degree=None):
    """Coefficients of ``prod_j (1 + c_j * t)`` as rational pairs.

    ``constants`` is a sequence of rational pairs; the empty product is
    ``[(1, 1)]``.  With ``max_degree`` given, coefficients above that degree
    are dropped (the kept ones are unaffected: the recurrence is triangular).
    """
    n = len(constants)
    cap = n if max_degree is None else min(max_degree, n)
    if cap < 0:
        return []
    den = 1
    for _, d in constants:
        den = lcm(den, d)
    scaled = [c * (den // d) for c, d in constants]
    # Integer product of (den + C_j t); divide by den**n at the end.
    coeffs = [1]
    for c in scaled:
        size = min(len(coeffs) + 1, cap + 1)
        nxt = [0] * size
        for i in range(len(coeffs)):
            x = coeffs[i]
            if not x:
                continue
            if i < size:
                nxt[i] += den * x
            if i + 1 < size:
                nxt[i + 1] += c * x
        coeffs = nxt
    if den == 1:
        return [(c, 1) for c in coeffs]
    whole = den ** n
    return [normalize(c, whole) for c in coeffs]
