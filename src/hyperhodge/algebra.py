"""Exact scalars and the two polynomial representations used everywhere else.

The scalar is :class:`fractions.Fraction` (re-exported as ``Rational``): it
keeps the canonical form we rely on for equality testing — positive
denominator, fully reduced, zero stored as 0/1.

``DensePolynomial`` is a coefficient list over ``Rational`` (index = degree)
for ordinary polynomials, whose degrees stay small here.  ``LaurentPolynomial``
is a sparse exponent->coefficient map for the equivariant parameter ``t``,
where exponents are few, scattered and often negative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Union

from . import kernels
from .errors import DomainError

Rational = Fraction
RationalLike = Union[Rational, int]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def as_pairs(coefficients):
    """Rational coefficients -> kernel representation (num, den pairs)."""
    return [(c.numerator, c.denominator) for c in coefficients]


def from_pairs(pairs):
    """Kernel representation -> tuple of Rational."""
    return tuple(Fraction(n, d) for n, d in pairs)


class _MinusInfinity:
    """Degree of the zero polynomial.

    Orders strictly below every integer, equals only itself, and deliberately
    supports no arithmetic: using it in a sum is a bug and should raise.
    """

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "-Infinity"


MINUS_INFINITY = _MinusInfinity()


def _coerce(value) -> Rational:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class DensePolynomial:
    """Univariate polynomial over Rational in a formal variable ``t``.

    Coefficients are indexed by degree; the highest stored coefficient is
    nonzero (the zero polynomial stores nothing and reports degree
    ``MINUS_INFINITY``).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "DensePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "DensePolynomial":
        return cls((ONE,))

    @classmethod
    def constant(cls, value: RationalLike) -> "DensePolynomial":
        return cls((value,))

    @classmethod
    def variable(cls) -> "DensePolynomial":
        """The monomial ``t``."""
        return cls((ZERO, ONE))

    @property
    def coefficients(self) -> tuple[Rational, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree, or ``MINUS_INFINITY`` for the zero polynomial."""
        if not self._coeffs:
            return MINUS_INFINITY
        return len(self._coeffs) - 1

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

    def __neg__(self):
        return DensePolynomial(-c for c in self._coeffs)

    def __sub__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DensePolynomial):
            pairs = kernels.poly_mul(as_pairs(self._coeffs),
                                     as_pairs(other._coeffs))
            return DensePolynomial(from_pairs(pairs))
        if isinstance(other, (Fraction, int)):
            scale = _coerce(other)
            return DensePolynomial(c * scale for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point: RationalLike) -> Rational:
        """Evaluate at ``point`` (Horner)."""
        x = _coerce(point)
        acc = ZERO
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

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
        if not all(isinstance(exponent, int) for exponent, _ in items):
            raise TypeError("Laurent exponents must be ints")
        self._terms = _accumulate((e, _coerce(c)) for e, c in items)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def term(cls, exponent: int, coefficient: RationalLike = 1) -> "LaurentPolynomial":
        """The monomial ``coefficient * t**exponent``."""
        return cls(((exponent, coefficient),))

    @classmethod
    def from_dense(cls, poly: DensePolynomial) -> "LaurentPolynomial":
        return cls(enumerate(poly.coefficients))

    def to_dense(self) -> DensePolynomial:
        """Reinterpret as an ordinary polynomial; all exponents must be >= 0."""
        if self._terms and min(self._terms) < 0:
            raise DomainError("negative exponents cannot form a DensePolynomial")
        if not self._terms:
            return DensePolynomial.zero()
        coeffs = [ZERO] * (max(self._terms) + 1)
        for exponent, coefficient in self._terms.items():
            coeffs[exponent] = coefficient
        return DensePolynomial(coeffs)

    @property
    def terms(self) -> dict[int, Rational]:
        return dict(self._terms)

    def support(self) -> tuple[int, ...]:
        """Exponents carrying a nonzero coefficient, ascending."""
        return tuple(sorted(self._terms))

    def coefficient(self, exponent: int) -> Rational:
        return self._terms.get(exponent, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return _laurent(_accumulate(
            chain(self._terms.items(), other._terms.items())))

    def __neg__(self):
        return _laurent({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            return _laurent(_accumulate(
                (e1 + e2, c1 * c2) for e1, c1 in self._terms.items()
                for e2, c2 in other._terms.items()))
        if isinstance(other, (Fraction, int)):
            scale = _coerce(other)
            if scale == 0:
                return LaurentPolynomial.zero()
            return _laurent({e: c * scale for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

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
