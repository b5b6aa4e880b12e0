"""Exact scalars and the two polynomial representations the verifier reports.

The scalar is :class:`fractions.Fraction` (re-exported as ``Rational``), the
one rational type above ``kernels``: it keeps the canonical form we rely on
for equality testing — positive denominator, fully reduced, zero as 0/1.
Only ``identities``, ``localization``, ``symmetric`` and the verification
suites in ``cli`` import this module: ``values`` takes ``Fraction``
directly, so ``table`` and point queries never compile it.

``DensePolynomial`` is a coefficient list over ``Rational`` (index = degree)
for ordinary polynomials, whose degrees stay small here; it multiplies by
``kernels.convolve``.  ``LaurentPolynomial`` is a sparse exponent->coefficient
map for the equivariant parameter ``t``, where exponents are few, scattered
and often negative; it is only built, added and read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from . import kernels

Rational = Fraction
RationalLike = Union[Rational, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def _coerce(value) -> Rational:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class DensePolynomial:
    """Univariate polynomial over Rational in a formal variable ``t``.

    Coefficients are indexed by degree; the highest stored coefficient is
    nonzero (the zero polynomial stores nothing).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        return self._coeffs

    def coefficient(self, power: int) -> Rational:
        """The coefficient of ``t**power`` (zero beyond the degree)."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return DensePolynomial(summed)

    def __sub__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self + DensePolynomial(-c for c in other._coeffs)

    def __mul__(self, other):
        if isinstance(other, DensePolynomial):
            return DensePolynomial(kernels.convolve(self._coeffs,
                                                    other._coeffs))
        if isinstance(other, (Fraction, int)):
            scale = _coerce(other)
            return DensePolynomial(c * scale for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(("DensePolynomial", self._coeffs))

    def __repr__(self):
        return f"DensePolynomial({list(self._coeffs)!r})"

    def __str__(self):
        return _render_terms(enumerate(self._coeffs))


class LaurentPolynomial:
    """Finitely supported map exponent -> nonzero Rational in ``t``.

    Exponents are arbitrary integers; zero coefficients are never stored, so
    equality is plain map equality and "is zero" is "is empty".
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike],
                                    Iterable[tuple[int, RationalLike]]] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        # a bool is an int to isinstance, but True is no exponent
        if not all(isinstance(exponent, int) and not isinstance(exponent, bool)
                   for exponent, _ in items):
            raise TypeError("Laurent exponents must be ints")
        self._terms = _accumulate((e, _coerce(c)) for e, c in items)

    def support(self) -> tuple[int, ...]:
        """Exponents carrying a nonzero coefficient, ascending."""
        return tuple(sorted(self._terms))

    def coefficient(self, exponent: int) -> Rational:
        return self._terms.get(exponent, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(("LaurentPolynomial", tuple(sorted(self._terms.items()))))

    def __repr__(self):
        return f"LaurentPolynomial({sorted(self._terms.items())!r})"

    def __str__(self):
        return _render_terms(sorted(self._terms.items()))


def laurent_sum(terms: Iterable[LaurentPolynomial]) -> LaurentPolynomial:
    """Exact sum with zero coefficients pruned; the empty sum is zero."""
    return _laurent(_accumulate(
        item for part in terms for item in part._terms.items()))


def _accumulate(items: Iterable[tuple[int, Rational]]) -> dict[int, Rational]:
    """Sum (exponent, coefficient) pairs by exponent, dropping zero sums."""
    total: dict[int, Rational] = {}
    for exponent, coefficient in items:
        value = total.get(exponent, ZERO) + coefficient
        if value == 0:
            total.pop(exponent, None)
        else:
            total[exponent] = value
    return total


def _laurent(terms: dict[int, Rational]) -> LaurentPolynomial:
    # wraps a map already free of zero coefficients, skipping __init__
    result = LaurentPolynomial.__new__(LaurentPolynomial)
    result._terms = terms
    return result


def _render_terms(items) -> str:
    parts = []
    for exponent, coefficient in items:
        if coefficient == 0:
            continue
        if exponent == 0:
            parts.append(str(coefficient))
        else:
            mono = "t" if exponent == 1 else f"t^{exponent}"
            if coefficient == 1:
                parts.append(mono)
            elif coefficient == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coefficient}*{mono}")
    if not parts:
        return "0"
    rendered = parts[0]
    for part in parts[1:]:
        rendered += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return rendered
