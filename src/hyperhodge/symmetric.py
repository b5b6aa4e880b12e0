"""Elementary symmetric functions, generating products, signed convolution.

For values x_1..x_n the i-th elementary symmetric function e_i is the sum of
all i-fold products of distinct values, with e_0 = 1 and e_i = 0 for i > n.
Its generating function is the product form used throughout the verifier:

    e_i(x_1..x_n) = [t^i] prod_j (1 + x_j t)

and multiplying one generating product by another with t -> -t realizes the
signed convolution sum((-1)**l * e_{i-l}(a) * e_l(b)).
"""

from __future__ import annotations

from typing import Sequence

from . import kernels
from .algebra import (DensePolynomial, Rational, RationalLike, ZERO,
                      _coerce, from_pairs)
from .errors import DomainError

Values = Sequence[RationalLike]


def _value_pairs(values: Values):
    pairs = []
    for v in values:
        c = _coerce(v)
        pairs.append((c.numerator, c.denominator))
    return pairs


def elementary(i: int, values: Values) -> Rational:
    """e_i of the given values; order never matters.

    Computed by the incremental product recurrence (cost O(n*i)), not by
    enumerating subsets.
    """
    if i < 0:
        raise DomainError("elementary symmetric index must be >= 0")
    coeffs = kernels.linear_product(_value_pairs(values), max_degree=i)
    if i >= len(coeffs):
        return ZERO
    return from_pairs((coeffs[i],))[0]


def gen_product(values: Values, sign: int = 1) -> DensePolynomial:
    """The generating product ``prod_j (1 + sign * x_j * t)``.

    The empty product is the constant polynomial 1.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    pairs = _value_pairs(values)
    if sign == -1:
        pairs = [(-n, d) for n, d in pairs]
    return DensePolynomial(from_pairs(kernels.linear_product(pairs)))


def signed_convolution(a: Values, b: Values, i: int) -> Rational:
    """sum((-1)**l * e_{i-l}(a) * e_l(b) for l in 0..i).

    Equals the coefficient of t**i in gen_product(a, +1) * gen_product(b, -1).
    """
    if i < 0:
        raise DomainError("convolution index must be >= 0")
    return (gen_product(a) * gen_product(b, -1)).coefficient(i)
