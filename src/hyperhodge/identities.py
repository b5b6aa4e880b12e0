"""Alternating binomial identities behind the closed forms, checked exactly.

The chain of facts verified here, in the order the proof machinery uses
them:

* ``alternating_power_sum(m, p)``: sum((-1)**k * C(m, k) * k**p) vanishes in
  the classical range 0 <= p < m (finite differences of order m kill degree
  < m).  The range matters: (m, p) = (1, 1) gives -1.
* ``product_vanishing_sum``: the same sum with k**p replaced by a product
  prod(m_i - k) over n arbitrary rationals; vanishes for m = 2n always and
  for m = 2n - 1 once n >= 2, since the product expands into powers k**r
  with r <= n.
* ``eqn_check``: the polynomial identity equivalent to the D-recursion once
  the closed forms are substituted and everything is packed into generating
  products: the recursion's own step (``values.recursion_step``) fed the
  closed-form families.
* ``P_poly`` / ``hat_transform``: the alternating sum of shifted generating
  products whose vanishing (degree <= g, yet g + 1 roots after the
  reversal substitution t -> 1/t) proves eqn; P_poly(1) = t, so the
  vanishing genuinely starts at g = 2.
* ``Q_poly``: the analogous alternating sum settling the d-recursion;
  vanishes from g = 1 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import kernels
from .algebra import DensePolynomial, Rational, ZERO, _coerce
from .errors import DomainError, VerificationError
from .symmetric import gen_product
from .values import closed_family, recursion_step


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check; passes iff computed == expected exactly."""

    name: str
    parameters: tuple[tuple[str, object], ...]
    computed: object
    expected: object

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters)
        status = "pass" if self.passed else "FAIL"
        return (f"identity {self.name} [{params}]: {status}\n"
                f"  computed: {self.computed}\n"
                f"  expected: {self.expected}")


def alternating_power_sum(m: int, p: int) -> int:
    """sum((-1)**k * C(m, k) * k**p for k in 0..m), with 0**0 = 1."""
    if m < 0 or p < 0:
        raise DomainError("m and p must be >= 0")
    total = 0
    for k in range(m + 1):
        term = comb(m, k) * k ** p
        total = total + term if k % 2 == 0 else total - term
    return total


def product_vanishing_sum(m_values, bound: int) -> Rational:
    """sum((-1)**k * C(bound, k) * prod(m_i - k)) for k in 0..bound.

    ``bound`` must be 2n-1 or 2n for n = len(m_values).  Computed twice — by
    direct product evaluation and through the elementary-symmetric expansion
    into alternating power sums — and the two routes must agree.
    """
    values = [_coerce(v) for v in m_values]
    n = len(values)
    if n < 1:
        raise DomainError("need at least one value")
    if bound not in (2 * n - 1, 2 * n):
        raise DomainError(f"bound must be {2 * n - 1} or {2 * n}, got {bound}")

    direct = ZERO
    for k in range(bound + 1):
        product = Rational(comb(bound, k))
        for v in values:
            product *= v - k
        direct = direct + product if k % 2 == 0 else direct - product

    # prod(m_i - k) = sum((-1)**r * e_{n-r}(m) * k**r)
    e = gen_product(values)
    expanded = ZERO
    for r in range(n + 1):
        term = e.coefficient(n - r) * alternating_power_sum(bound, r)
        expanded = expanded + term if r % 2 == 0 else expanded - term

    if direct != expanded:
        raise VerificationError(
            "product/elementary-symmetric routes disagree",
            key=(tuple(values), bound), expected=direct, computed=expanded)
    return direct


def eqn_check(g: int) -> IdentityReport:
    """The generating-product identity equivalent to the D-recursion.

    Left side: the closed A_k = prod over n in 1..g of (1 + (2n-1)t), with
    k = 2g + 2.  Right side: values.recursion_step for A_k, fed the closed
    families A_k' and a_k' of values.closed_family: the signed binomial
    combination of split products, with odd j in 1..2g-1 and even j in
    2..2g-2.  Every split product has degree at most g, so the step's
    degree cap g drops nothing.
    """
    if g < 2:
        raise DomainError("the identity needs g >= 2")
    k = 2 * g + 2
    D = {m: closed_family("D", m, g) for m in range(2, k + 1, 2)}
    d = {m: closed_family("d", m, g) for m in range(2, k, 2)}
    return IdentityReport(
        name="generating-product identity",
        parameters=(("g", g), ("k", k)),
        computed=DensePolynomial(recursion_step("D", k, D, d, g)),
        expected=DensePolynomial(D[k]),
    )


def _linear_product(factors) -> list[int]:
    # prod(1 + c*t) over integer factors c, as integer coefficients
    return [c for c, _ in kernels.linear_product([(c, 1) for c in factors])]


def P_poly(g: int) -> DensePolynomial:
    """sum((-1)**j * C(2g-1, j) * prod(1 + (2g-1-j-2(n-1))t, n=1..g)).

    Identically zero for every g >= 2; P_poly(1) = t.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    return _alternating_product_sum(order=2 * g - 1, top=2 * g - 1, g=g)


def Q_poly(g: int) -> DensePolynomial:
    """sum((-1)**j * C(2g, j) * prod(1 + (2g+1-j-2(n-1))t, n=1..g)).

    Identically zero for every g >= 1.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    return _alternating_product_sum(order=2 * g, top=2 * g + 1, g=g)


def _alternating_product_sum(order: int, top: int, g: int) -> DensePolynomial:
    total = [0] * (g + 1)
    for j in range(order + 1):
        scale = comb(order, j) if j % 2 == 0 else -comb(order, j)
        block = _linear_product(top - j - 2 * (n - 1) for n in range(1, g + 1))
        for i, c in enumerate(block):
            total[i] += scale * c
    return DensePolynomial(total)


def hat_transform(p: DensePolynomial, g: int) -> DensePolynomial:
    """t**g * p(1/t): coefficient reversal padded to length g + 1."""
    if p.degree > g:
        raise DomainError(f"degree {p.degree} exceeds g={g}")
    coeffs = list(p.coefficients) + [ZERO] * (g + 1 - len(p.coefficients))
    return DensePolynomial(reversed(coeffs))


def hat_root_values(g: int) -> list[Rational]:
    """Evaluations at t = 1..g+1 of the reversed P-sum, term by term.

    Each evaluation is a product_vanishing_sum instance with bound 2g - 1
    over the g shifted arguments, so every entry is zero for g >= 2 — the
    g + 1 roots that force P_poly(g) to vanish.  Computed directly from the
    alternating sum, not from P_poly, so it is evidence rather than tautology.
    """
    if g < 2:
        raise DomainError("the root argument needs g >= 2")
    out = []
    for x in range(1, g + 2):
        shifted = [Rational(x + 2 * g - 1 - 2 * (n - 1)) for n in range(1, g + 1)]
        out.append(product_vanishing_sum(shifted, bound=2 * g - 1))
    return out
