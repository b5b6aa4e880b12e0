"""Elementary symmetric functions, generating products, signed convolution.

For values x_1..x_n the i-th elementary symmetric function e_i is the sum of
all i-fold products of distinct values, with e_0 = 1 and e_i = 0 for i > n.
Its generating function is the product form:

    e_i(x_1..x_n) = [t^i] prod_j (1 + x_j t)

and multiplying one generating product by another with t -> -t realizes the
signed convolution sum((-1)**l * e_{i-l}(a) * e_l(b)).

Products are built on ``Fraction``s by ``kernels.times_linear``.  No command
reaches this module; it stays as public API, which the benchmark traces.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import kernels
from .algebra import (ONE, DensePolynomial, Rational, RationalLike, ZERO,
                      _coerce)
from .errors import DomainError
from .values import _check_int

Values = Sequence[RationalLike]


def _product(values: Values, sign: int = 1,
             degree: Optional[int] = None) -> list[Rational]:
    # coefficients of prod_j (1 + sign * x_j t) up to ``degree``
    coeffs = [ONE]
    for v in values:
        coeffs = kernels.times_linear(coeffs, sign * _coerce(v), degree)
    return coeffs


def elementary(i: int, values: Values) -> Rational:
    """e_i of the given values; order never matters.

    Computed by the incremental product recurrence (cost O(n*i)), not by
    enumerating subsets.
    """
    _check_int("elementary symmetric index", i, 0)
    coeffs = _product(values, degree=i)
    return coeffs[i] if i < len(coeffs) else ZERO


def gen_product(values: Values, sign: int = 1) -> DensePolynomial:
    """The generating product ``prod_j (1 + sign * x_j * t)``.

    The empty product is the constant polynomial 1.
    """
    if (not isinstance(sign, int) or isinstance(sign, bool)
            or sign not in (1, -1)):
        raise DomainError(f"sign must be the integer 1 or -1, got {sign!r}")
    return DensePolynomial(_product(values, sign))


def signed_convolution(a: Values, b: Values, i: int) -> Rational:
    """sum((-1)**l * e_{i-l}(a) * e_l(b) for l in 0..i).

    Equals the coefficient of t**i in gen_product(a, +1) * gen_product(b, -1).
    """
    _check_int("convolution index", i, 0)
    return (gen_product(a) * gen_product(b, -1)).coefficient(i)
