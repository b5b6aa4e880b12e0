"""Hyperelliptic Hodge integrals D(i, k) and d(i, k), two ways.

For k = 2g + 2 branch points, D(i, k) is the integral of psi_1**(k-3-i) *
lambda_i over the k-pointed hyperelliptic locus (all marked points are
Weierstrass points), pulled back along the branch map; d(i, k) is the
integral of psi**(k-2-i) * lambda_i on the variant carrying one extra
conjugate pair of points, with the psi-class at the pair's image.  The psi
exponents are the complementary degrees to lambda_i on spaces of dimension
k - 3 and k - 2, so each integrand has top degree and the values are plain
rationals.

Closed forms:

    D(i, k) = (1/2)**(i+1) * e_i(1, 3, ..., k-3)
    d(i, k) = (1/2)**(i+1) * e_i(2, 4, ..., k-2)

The recursion works on each family as a generating polynomial in t with the
powers of two scaled out:

    A_k(t) = sum over i of 2**(i+1) * D(i, k) * t**i
    a_k(t) = sum over i of 2**(i+1) * d(i, k) * t**i

By the closed forms these are the integer products prod(1 + (2n-1)t) and
prod(1 + 2nt) over n in 1..g.  The vanishing localization integrals (see
localization.py for the graph-sum derivation) give

    A_k(t) = sum over odd j in 1..k-3 of
                 C(k-3, j) * a_{k-1-j}(t) * a_{j+1}(-t)
           - sum over even j in 2..k-4 of
                 C(k-3, j) * A_{k-j}(t) * A_{j+2}(-t)

    a_k(t) = sum over odd j in 1..k-3 of
                 C(k-2, j) * A_{k+1-j}(t) * A_{j+1}(-t)
           - sum over even j in 2..k-2 of
                 C(k-2, j) * a_{k-j}(t) * a_j(-t)

The coefficient of t**i in V(t) * W(-t) is the lambda-class splitting sum
sum((-1)**l * V_{i-l} * W_l), and the recursion's factor 2 cancels the 1/2
the scaling leaves on each product, so the step needs no denominators.
The two sums multiply the same pairs: A_k's split j, P_j(t) =
a_{k-1-j}(t) * a_{j+1}(-t) (odd j) or A_{k-j}(t) * A_{j+2}(-t) (even j),
is a_k's split j + 1, and its mirror j' = k-2-j swaps the two families,
so P_j'(t) = P_j(-t).  One product per j in 1..(k-2)/2 thus adds
(s + (-1)**i * s') * P_j[i] at t**i to each kind, s and s' the signed
binomials of its split and that split's mirror (none for the middle j).
Only a_k's split 1, A_k(t) * A_2(-t) (mirror binomial 0), reads A_k, so
``recursion_steps`` hands out A_k, then a_k once the caller has stored A_k
with its base values: k/2 convolutions in all.  ``identities.eqn_check``
takes A_k alone, fed the closed families, which ``closed_families``
builds as those integer products for k = 2, 4, ... in turn.  Both routes
hand out their families in one shape: a dict per kind, keyed by k, each
cut at the requested degree or its genus, whichever is lower.
``closed_D`` and ``closed_d`` unscale one coefficient of a closed one, and
``route_checks`` compares any route's families with the closed ones.

Base values: D(1, 4) = 1/4, D(0, k) = d(0, k) = 1/2, and zero for i > g; the
k = 2 conventions (1/2 for i = 0, else 0) give A_2 = a_2 = 1 and make the
recursions' extreme summands match the degenerate graphs they encode.
``recursive_families`` builds the families bottom-up in k, A_k before a_k
(which reads it), truncated at the highest degree the caller asks for, and
keeps nothing between calls.  Each coefficient is first offered to
``base_value`` (a module global, which tests replace to inject a fault) as
a plain (kind, i, k) tuple; the recursion fills in only the rest.  Scaled
base values are stored as ints, so the families are plain ints.  The
recursion never reads the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

from . import kernels
from .errors import DomainError, IdentityReport, VerificationError

ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _check_even_k(k: int, minimum: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if k % 2:
        raise DomainError(f"k must be even, got {k}")
    if k < minimum:
        raise DomainError(f"k must be >= {minimum}, got {k}")


def _check_int(name: str, value: int, minimum: int) -> None:
    # a bool is an int to isinstance, but True is no index, k or degree
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def closed_families(degree: int, k_max: int) -> tuple[dict, dict]:
    """The scaled closed D and d families for every even k in 2..k_max.

    The shape ``recursive_families(degree, k_max)`` gives for the recursion:
    two dicts keyed by k, the family at k holding its coefficients
    0..min(degree, g).  They are prod(1 + (2n-1)t) for D and prod(1 + 2nt)
    for d over n in 1..g, so the coefficient of t**i is 2**(i+1) times
    D(i, k) or d(i, k).  One incremental product per kind (``_closed_chain``).
    """
    _check_int("degree", degree, 0)
    _check_even_k(k_max, 2)
    return _closed_chain("D", degree, k_max), _closed_chain("d", degree, k_max)


def _closed_chain(kind: str, degree: int, k_max: int) -> dict:
    # the one place that spells the closed factors 1 + (k-3)t and 1 + (k-2)t
    family, shift = {2: [1]}, (3 if kind == "D" else 2)
    for k in range(4, k_max + 1, 2):
        family[k] = kernels.times_linear(family[k - 2], k - shift,
                                         min(degree, (k - 2) // 2))
    return family


# bounded: a long-lived process keeps at most 1024 values of each kind, far
# more than a batch of point queries checks; typed: D(2, 8.0) is no D(2, 8)
@lru_cache(maxsize=1024, typed=True)
def closed_D(i: int, k: int) -> Fraction:
    """(1/2)**(i+1) * e_i(1, 3, ..., k-3); zero once i exceeds (k-2)/2."""
    return _closed_value("D", i, k)


@lru_cache(maxsize=1024, typed=True)
def closed_d(i: int, k: int) -> Fraction:
    """(1/2)**(i+1) * e_i(2, 4, ..., k-2); zero once i exceeds (k-2)/2."""
    return _closed_value("d", i, k)


def _closed_value(kind: str, i: int, k: int) -> Fraction:
    _check_even_k(k, 4 if kind == "D" else 2)
    _check_int("lambda index i", i, 0)
    if i > (k - 2) // 2:  # e_i of g numbers; no degree-i family needed
        return ZERO
    return _unscale(_closed_chain(kind, i, k)[k][i], i)


def base_value(key: tuple[str, int, int]) -> Optional[Fraction]:
    """The stored base value for ``key``, or None when the recursion is needed.

    ``key`` is a plain ``(kind, i, k)`` tuple whose i and k the caller has
    checked; a replacement receives the same tuple.  Covers: the vanishing
    i > g, the shared value D(0, k) = d(0, k) = 1/2, D(1, 4) = 1/4, and the
    k = 2 boundary convention (1/2 for i = 0, else 0, already subsumed by
    the first two rules).
    """
    kind, i, k = key
    if i > (k - 2) // 2:
        return ZERO
    if i == 0:
        return HALF
    if kind == "D" and i == 1 and k == 4:
        return QUARTER
    return None


def recursion_steps(k: int, D, d, degree: int, negated=None):
    """Yield coefficients 0..degree of A_k, then of a_k, off shared products.

    ``D`` and ``d`` map each even k' to its scaled family (ints, or Fractions
    after an injected fault, possibly truncated).  a_k is computed only on
    resumption and reads D[k], which the caller stores first.  ``negated``
    keeps each w(-t) by j for a caller stepping many k on the same families.
    """
    _check_even_k(k, 4)
    _check_int("degree", degree, 0)
    negated = {} if negated is None else negated

    def product(j):  # P_j(t) = v(t) * w(-t), A_k's split j
        v, w = (d[k - 1 - j], d[j + 1]) if j % 2 else (D[k - j], D[j + 2])
        if j not in negated:
            negated[j] = [-c if ell % 2 else c for ell, c in enumerate(w)]
        return kernels.convolve(negated[j], v, degree)  # w is shorter

    products = [product(j) for j in range(1, k // 2)]
    yield _pair_sum(products, k, 0, degree)
    yield _pair_sum([product(0)] + products, k, 1, degree)


def _pair_sum(products, k: int, shift: int, degree: int) -> list:
    """Sum of s * P_j(t) + s' * P_j(-t) over the P_j, j from 1 - shift: s, s'
    the signed C(k-3+shift, j+shift), C(k-3+shift, j-1) of A_k's (shift 0)
    or a_k's (shift 1) split j + shift and its mirror, s' = 0 at the middle
    (last) j and at j = 0 (mirror binomial C(k-2, k-1) = 0)."""
    row = [comb(k - 3 + shift, m) for m in range(k // 2 + shift)]
    total = [0] * (degree + 1)
    last = len(products) - shift
    for j, P in enumerate(products, 1 - shift):
        sign = 1 if (j + shift) % 2 else -1
        s, s_mirror = sign * row[j + shift], sign * row[j - 1] * (0 < j < last)
        even, odd = s + s_mirror, s - s_mirror
        for i, c in enumerate(P):
            total[i] += (odd if i % 2 else even) * c
    return total


def _scaled_base(kind: str, i: int, k: int):
    # a plain tuple: the build checked kind, i and k already
    value = base_value((kind, i, k))
    if value is None:
        return None
    scaled = value * 2 ** (i + 1)
    return scaled.numerator if scaled.denominator == 1 else scaled


def _unscale(coefficient, i: int) -> Fraction:
    return Fraction(coefficient, 2 ** (i + 1))


def recursive_families(degree: int, k_max: int) -> tuple[dict, dict]:
    """The scaled D and d families the recursion builds for even k <= k_max.

    The shape ``closed_families(degree, k_max)`` gives: the family at k
    holds its coefficients 0..min(degree, g), built bottom-up in k.  Each
    coefficient is first offered to ``base_value`` as a plain (kind, i, k)
    tuple, k ascending and D's before d's, and the recursion step fills in
    the rest.
    """
    _check_int("degree", degree, 0)
    _check_even_k(k_max, 2)
    D, d, negated = {}, {}, {}
    for k in range(2, k_max + 1, 2):
        top = min(degree, (k - 2) // 2)
        bases = [[_scaled_base(kind, i, k) for i in range(top + 1)]
                 for kind in ("D", "d")]
        steps = recursion_steps(k, D, d, top, negated)
        for base, family in zip(bases, (D, d)):  # a_k reads A_k
            step = next(steps) if None in bases[0] + bases[1] else base
            family[k] = [s if c is None else c for c, s in zip(base, step)]
    return D, d


def recursive_D(i: int, k: int) -> Fraction:
    """D(i, k) via the recursion: a base value, or the families built to k."""
    return _recursive("D", i, k)


def recursive_d(i: int, k: int) -> Fraction:
    """d(i, k) via the recursion: a base value, or the families built to k."""
    return _recursive("d", i, k)


def _recursive(kind: str, i: int, k: int) -> Fraction:
    _check_int("lambda index i", i, 0)
    _check_even_k(k, 2)
    base = base_value((kind, i, k))
    if base is not None:
        return base
    D, d = recursive_families(i, k)
    return _unscale((D if kind == "D" else d)[k][i], i)


def route_checks(name: str, route, max_k: int):
    """A passing IdentityReport (kind, i, k) per value a route gives to max_k.

    ``route(kind, k)`` is the route's scaled family at k, empty where it has
    none; it is called when the walk reaches it, k ascending and D before
    d, so a route that raises does so after the checks before it.
    The first coefficient off the closed family at k raises
    VerificationError with both values unscaled, the route's as computed.
    """
    closed = dict(zip("Dd", closed_families((max_k - 2) // 2, max_k)))
    for k in range(4, max_k + 1, 2):
        for kind in "Dd":
            pairs = zip(route(kind, k), closed[kind][k])
            for i, (computed, expected) in enumerate(pairs):
                key = (("kind", kind), ("i", i), ("k", k))
                value = _unscale(computed, i)
                if computed != expected:
                    raise VerificationError(IdentityReport(
                        name, key, value, _unscale(expected, i)))
                yield IdentityReport(name, key, value, value)


def recursion_checks(max_k: int):
    """``route_checks`` of the families the recursion builds through max_k."""
    _check_even_k(max_k, 4)
    families = dict(zip("Dd", recursive_families((max_k - 2) // 2, max_k)))
    return route_checks("closed-vs-recursive",
                        lambda kind, k: families[kind][k], max_k)


def table(max_k: int) -> list[tuple[tuple[str, int, int], Fraction]]:
    """Every D and d value for 4 <= k <= max_k, one per ``recursion_checks``.

    Each row is the plain key (kind, i, k) and the value, in (kind, k, i)
    order; a mismatch raises the walk's error.
    """
    rows = {"D": [], "d": []}
    for report in recursion_checks(max_k):
        (_, kind), (_, i), (_, k) = report.parameters
        rows[kind].append(((kind, i, k), report.computed))
    return rows["D"] + rows["d"]
