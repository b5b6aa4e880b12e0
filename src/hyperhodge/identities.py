"""Alternating binomial identities behind the closed forms, checked exactly.

Every check runs on plain ints and is computed term by term; only the results
are handed back as ``Fraction`` or ``DensePolynomial``, in the reports of the
suite ``identity_checks``.  The facts, in the order the proof uses them:

* ``alternating_power_sum(m, p)``: sum((-1)**k * C(m, k) * k**p) vanishes in
  the classical range 0 <= p < m (finite differences of order m kill degree
  < m).  The range matters: (m, p) = (1, 1) gives -1.  The sums for one m
  depend on m alone, so ``alternating_power_sums(m, p_max)`` gives the whole
  row p = 0..p_max from one pass over k, adding every term on its own.
* ``product_vanishing_sum``: the same sum with k**p replaced by a product
  prod(m_i - k) over n arbitrary rationals; vanishes for m = 2n always and
  for m = 2n - 1 once n >= 2, since the product expands into powers k**r
  with r <= n.  The rationals are cleared by one common denominator L, and
  the sum is taken twice on ints: directly over prod(L*m_i - k*L), and
  through the elementary symmetric functions of the L*m_i, whose e_0..e_n
  are updated in place one value at a time and summed by Horner's rule in
  -L.  ``product_vanishing_sums(draws, bound)`` takes a batch of draws
  with one bound: the signed binomials and the alternating-power-sum row
  are built once per batch, and each draw's sum is yielded as soon as it
  is checked: the shared ``algebra.ZERO`` when it vanishes, L**n being
  formed only for a nonzero sum or a failure report.
* ``eqn_check``: the polynomial identity equivalent to the D-recursion once
  the closed forms are substituted and everything is packed into generating
  products: the A_k that the recursion's own ``values.recursion_steps``
  yields first (it is never resumed for a_k), fed the families of
  ``values.closed_families`` in the shape the recursion builds them.
* ``P_poly`` / ``hat_transform``: the alternating sum of shifted generating
  products whose vanishing (degree <= g, yet g + 1 roots after the
  reversal substitution t -> 1/t) proves eqn; P_poly(1) = t, so the
  vanishing genuinely starts at g = 2.  Consecutive products of one parity
  share all factors but one, so each is the one before it times the
  entering factor, divided exactly by the leaving one.
* ``Q_poly``: the analogous alternating sum settling the d-recursion;
  vanishes from g = 1 on.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Iterator

from . import kernels
from .algebra import DensePolynomial, Rational, ZERO, _coerce
from .errors import DomainError, IdentityReport, VerificationError
from .values import _check_int, closed_families, recursion_steps


def _signed_binomials(m: int) -> list[int]:
    """(-1)**k * C(m, k) for k in 0..m."""
    return [comb(m, k) if k % 2 == 0 else -comb(m, k) for k in range(m + 1)]


def alternating_power_sums(m: int, p_max: int) -> list[int]:
    """alternating_power_sum(m, p) for p in 0..p_max, from one pass over k.

    Each term (-1)**k * C(m, k) * k**p is formed as the one for p - 1 times
    k and added to its own sum; 0**0 = 1.
    """
    _check_int("m", m, 0)
    _check_int("p_max", p_max, 0)
    row = [0] * (p_max + 1)
    for k, term in enumerate(_signed_binomials(m)):
        for p in range(p_max + 1):
            row[p] += term
            term *= k
    return row


def alternating_power_sum(m: int, p: int) -> int:
    """sum((-1)**k * C(m, k) * k**p for k in 0..m), with 0**0 = 1."""
    _check_int("p", p, 0)
    return alternating_power_sums(m, p)[p]


def product_vanishing_sum(m_values, bound: int) -> Rational:
    """sum((-1)**k * C(bound, k) * prod(m_i - k)) for k in 0..bound.

    ``bound`` must be 2n-1 or 2n for n = len(m_values).  With L the lcm of
    the denominators and M_i = L * m_i, the sum is L**-n times

        sum((-1)**k * C(bound, k) * prod(M_i - k*L))                 (direct)
        sum((-1)**r * e_{n-r}(M) * L**r * alternating_power_sum(bound, r))

    both taken on ints.  The two routes must agree; the result is the
    direct one over L**n.  A batch of one of ``product_vanishing_sums``.
    """
    return next(product_vanishing_sums([m_values], bound))


def product_vanishing_sums(draws, bound: int) -> Iterator[Rational]:
    """product_vanishing_sum(values, bound) for each values in ``draws``.

    The signed binomials and the row alternating_power_sums(bound, n) depend
    on the bound alone (n is the one with bound in (2n-1, 2n)), so they are
    built once per call, and the row is read afresh for each draw.  Draws
    are read and their sums yielded one at a time: a failing draw raises
    only after every earlier sum was yielded.  A bool value is refused,
    like a float or str, with DomainError.
    """
    _check_int("bound", bound, 0)
    binomials = _signed_binomials(bound)
    row = alternating_power_sums(bound, (bound + 1) // 2)
    for m_values in draws:
        try:
            values = [_coerce(v) for v in m_values]
        except TypeError as exc:  # a float or str is a usage error here
            raise DomainError(str(exc)) from None
        n = len(values)
        if n < 1:
            raise DomainError("need at least one value")
        if bound not in (2 * n - 1, 2 * n):
            raise DomainError(
                f"bound must be {2 * n - 1} or {2 * n}, got {bound}")
        denominators = [v.denominator for v in values]
        L = lcm(*denominators)
        M = [v.numerator * (L // d) for v, d in zip(values, denominators)]

        direct = 0
        for k, product in enumerate(binomials):
            kL = k * L
            for m in M:
                product *= m - kL
            direct += product

        # prod(M_i - k*L) = sum(e_{n-r}(M) * (-k*L)**r): e_0..e_n of M built
        # in place, then the sum over r taken by Horner's rule in -L
        e = [1] + [0] * n
        for j, m in enumerate(M, 1):
            for i in range(j, 0, -1):
                e[i] += m * e[i - 1]
        expanded = 0
        for e_j, entry in zip(e, reversed(row)):
            expanded = expanded * -L + e_j * entry

        if direct != expanded:
            raise VerificationError(IdentityReport(
                "product/elementary-symmetric routes",
                (("values", tuple(values)), ("bound", bound)),
                Fraction(expanded, L ** n), Fraction(direct, L ** n)))
        yield Fraction(direct, L ** n) if direct else ZERO


def eqn_check(g: int) -> IdentityReport:
    """The generating-product identity equivalent to the D-recursion.

    Left side: the closed A_k = prod over n in 1..g of (1 + (2n-1)t), with
    k = 2g + 2.  Right side: the A_k that values.recursion_steps yields
    first, fed the closed families A_k' and a_k': the signed binomial sum of
    split products, odd j in 1..2g-1 and even j in 2..2g-2, one convolution
    per mirror pair, g in all; a_k is never computed.  Every split product
    has degree at most g, so the step's degree cap g drops nothing.  The
    families are cut at their genus, the length the recursion's families
    have, so no zero padding is multiplied.
    """
    _check_int("g", g, 2)
    k = 2 * g + 2
    D, d = closed_families(g, k)
    return IdentityReport(
        name="generating-product identity",
        parameters=(("g", g), ("k", k)),
        computed=DensePolynomial(next(recursion_steps(k, D, d, g))),
        expected=DensePolynomial(D[k]),
    )


def _divide_linear(coeffs: list[int], c: int) -> list[int]:
    """coeffs / (1 + c*t), one degree shorter, by exact division.

    A nonzero remainder raises VerificationError, computed against 0.
    """
    quotient = []
    carry = 0
    for a in coeffs[:-1]:
        carry = a - c * carry
        quotient.append(carry)
    remainder = coeffs[-1] - c * carry
    if remainder:
        raise VerificationError(IdentityReport(
            "exact division by 1 + ct",
            (("coefficients", tuple(coeffs)), ("c", c)), remainder, 0))
    return quotient


def P_poly(g: int) -> DensePolynomial:
    """sum((-1)**j * C(2g-1, j) * prod(1 + (2g-1-j-2(n-1))t, n=1..g)).

    Identically zero for every g >= 2; P_poly(1) = t.  The 2g products are
    taken in two parity chains, each from one full product: the product at
    j + 2 is the one at j times the factor for n = g + 1, divided exactly
    by the factor for n = 1 (a remainder raises VerificationError).
    """
    _check_int("g", g, 1)
    return _alternating_product_sum(order=2 * g - 1, top=2 * g - 1, g=g)


def Q_poly(g: int) -> DensePolynomial:
    """sum((-1)**j * C(2g, j) * prod(1 + (2g+1-j-2(n-1))t, n=1..g)).

    Identically zero for every g >= 1; the products come as in P_poly.
    """
    _check_int("g", g, 1)
    return _alternating_product_sum(order=2 * g, top=2 * g + 1, g=g)


def _alternating_product_sum(order: int, top: int, g: int) -> DensePolynomial:
    total = [0] * (g + 1)
    for j, block in enumerate(_window_blocks(order, top, g)):
        scale = comb(order, j) if j % 2 == 0 else -comb(order, j)
        total = [a + scale * c for a, c in zip(total, block)]
    return DensePolynomial(total)


def _window_blocks(order: int, top: int, g: int):
    """prod(1 + (top - j - 2n)t, n=0..g-1) for j = 0..order, in order.

    The factor constants at j + 2 are those at j shifted down by 2: the
    constant top - j leaves and top - j - 2g enters.
    """
    chains = []
    for j in range(order + 1):
        if j < 2:
            chains.append(reduce(kernels.times_linear,
                                 (top - j - 2 * n for n in range(g)), [1]))
        else:
            chains[j % 2] = kernels.times_linear(
                _divide_linear(chains[j % 2], top - j + 2),
                top - j - 2 * (g - 1))
        yield chains[j % 2]


def hat_transform(p: DensePolynomial, g: int) -> DensePolynomial:
    """t**g * p(1/t): coefficient reversal padded to length g + 1."""
    _check_int("g", g, 0)
    degree = len(p.coefficients) - 1  # -1 for the zero polynomial
    if degree > g:
        raise DomainError(f"degree {degree} exceeds g={g}")
    coeffs = list(p.coefficients) + [ZERO] * (g + 1 - len(p.coefficients))
    return DensePolynomial(reversed(coeffs))


def hat_root_values(g: int) -> list[Rational]:
    """Evaluations at t = 1..g+1 of the reversed P-sum, term by term.

    Each evaluation is a product_vanishing_sum instance with bound 2g - 1
    over the g shifted arguments, so every entry is zero for g >= 2 — the
    g + 1 roots that force P_poly(g) to vanish.  Computed directly from the
    alternating sum, not from P_poly, so it is evidence rather than tautology.
    The g + 1 instances are one product_vanishing_sums batch.
    """
    _check_int("g", g, 2)
    return list(product_vanishing_sums(
        ([Rational(x + 2 * g - 1 - 2 * (n - 1)) for n in range(1, g + 1)]
         for x in range(1, g + 2)),
        bound=2 * g - 1))


def identity_checks(max_g: int):
    """The identity suite through genus ``max_g``, one report at a time."""
    # documented boundary cases: the vanishing ranges are sharp
    yield IdentityReport(
        "alternating-power-sum boundary", (("m", 1), ("p", 1)),
        alternating_power_sum(1, 1), -1)
    yield IdentityReport(
        "P(t) boundary", (("g", 1),),
        P_poly(1), DensePolynomial([0, 1]))

    for m in range(1, min(2 * max_g, 60) + 1):  # m = 0 has no p < m
        row = alternating_power_sums(m, m - 1)
        for p in range(m):
            yield IdentityReport(
                "alternating-power-sum vanishing", (("m", m), ("p", p)),
                row[p], 0)

    # fixed seed, so the emitted report is deterministic; the draws are
    # Fraction(rng.randint(-99, 99), rng.randint(1, 20)) in order (a test
    # pins them), read from the 199 x 20 rationals built once
    rng = random.Random(20220408)
    rationals = [[Fraction(a, b) for b in range(1, 21)]
                 for a in range(-99, 100)]
    for n in range(1, min(max_g, 10) + 1):
        for bound in (2 * n - 1, 2 * n):
            if bound == 2 * n - 1 and n < 2:
                continue  # sharp boundary: the 2n-1 variant needs n >= 2
            draws = _seeded_draws(rng.getrandbits, rationals, n, 100)
            for total in product_vanishing_sums(draws, bound):
                yield IdentityReport(
                    "product vanishing", (("n", n), ("bound", bound)),
                    total, 0)

    zero = DensePolynomial()
    for g in range(2, max_g + 1):
        yield IdentityReport(
            "P(t) vanishing", (("g", g),), P_poly(g), zero)
        yield eqn_check(g)
    for g in range(2, min(max_g, 20) + 1):
        yield IdentityReport(
            "hat-transform roots", (("g", g), ("points", f"1..{g + 1}")),
            hat_root_values(g), [Fraction(0)] * (g + 1))
    for g in range(1, max_g + 1):
        yield IdentityReport(
            "Q(t) vanishing", (("g", g),), Q_poly(g), zero)


def _seeded_draws(getrandbits, rationals, n: int, count: int):
    """``count`` draws of n entries rationals[a][b], a < 199 and b < 20.

    Each index is drawn as ``random.randint`` draws one below 199 or 20:
    the bit length of 199 (8) or 20 (5) in bits, drawn again while the
    value is out of range.
    """
    for _ in range(count):
        draw = []
        for _ in range(n):
            a = getrandbits(8)
            while a >= 199:
                a = getrandbits(8)
            b = getrandbits(5)
            while b >= 20:
                b = getrandbits(5)
            draw.append(rationals[a][b])
        yield draw
