"""Torus-fixed-locus graph sums for degree-1 stable maps to P^1 x BZ_2.

A fixed-locus component is indexed by a two-vertex graph: the vertices sit
over the fixed points 0 and infinity of P^1, one central edge carries the
degree-1 component, and the k twisted marked points split between the two
vertices as labelled half-edges.  A vertex with h >= 2 half-edges carries a
contracted component whose moduli space depends on the parity of h (the node
joining it to the central component is twisted exactly when h is odd):

    h odd  ->  (h+1) twisted points, no untwisted point, dimension h - 2
    h even ->  h twisted points plus 1 untwisted point,  dimension h - 2

A vertex with 0 or 1 half-edges is degenerate: no contracted component, no
moduli, no psi-class.

The inverse Euler class of a graph's normal bundle contributes, per vertex
side s (+1 over 0, -1 over infinity):

    * a numerator factor s*t for each bare vertex (no half-edges),
    * the geometric series 1/(s*t - psi) for each vertex with a contracted
      component, expanded to the vertex dimension (higher psi powers
      integrate to zero),
    * a global 1/(-t^2) for the central component,
    * the gluing factor: 2 per node (one per contracted component) times 1/2
      for the central degree-1 component.

Restriction facts: a point class pulled back from 0 restricts to t on every
graph, from infinity to -t; the Hodge class lambda_i restricts to the sum of
lambda_{i1} x lambda_{i2} over i1 + i2 = i across the two vertex moduli.

Two insertion recipes are wired in: kind "A" integrates
ev_1*(0) ev_2*(0) ev_3*(inf) lambda_i (points 1, 2 over 0, point 3 over
infinity) and kind "B" integrates ev_1*(0) ev_2*(0) lambda_i.  Both live on
a k-dimensional space and sit in degree k - 1 < k resp. k - 2 < k, so the
full graph sum must vanish identically in t; extracting the j = 0 family
from that vanishing reproduces the recursions in values.py.

Each graph is evaluated for every i at once, on ints.  A series vertex of
dimension m pairs psi**(m-l) with lambda_l, a D or d value: its family over
l is the scaled closed one at the vertex's twisted point count, read off
the {k: coefficients} dicts of values.closed_families (cut at the vertex
genus, which never exceeds m), and negated where s < 0 and m - l is even.
The lambda_i splitting is the t**i coefficient of the families' product
conv, taken with kernels.convolve, and the graph adds
+-multiplicity * conv[i] / 2**(i+1) at t**(t_power_fixed + i - sum(m+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Literal

from . import kernels, values
from .algebra import HALF, LaurentPolynomial, Rational, ZERO
from .errors import DomainError, VerificationError
from .values import _check_even_k, _check_index, _check_int, closed_D, closed_d

Side = Literal["zero", "infty"]
FamilyKind = Literal["A", "B"]


@dataclass(frozen=True)
class LocalizationGraph:
    """Two-vertex graph: marked-point labels split over 0 and infinity."""

    k: int
    over_zero: frozenset[int]
    over_infty: frozenset[int]

    def __post_init__(self):
        _check_even_k(self.k, 2)
        object.__setattr__(self, "over_zero", frozenset(self.over_zero))
        object.__setattr__(self, "over_infty", frozenset(self.over_infty))
        if self.over_zero & self.over_infty:
            raise DomainError("a marked point cannot lie over both 0 and infinity")
        if self.over_zero | self.over_infty != frozenset(range(1, self.k + 1)):
            raise DomainError(f"labels must partition 1..{self.k}")


@dataclass(frozen=True)
class VertexModuli:
    """Moduli space of one vertex's contracted component.

    ``twisted``/``untwisted`` count its marked points, the forced node
    included; both are 0 for a degenerate vertex (0 or 1 half-edges), which
    has no contracted component at all.
    """

    side: Side
    half_edges: int
    twisted: int
    untwisted: int

    @property
    def degenerate(self) -> bool:
        return self.half_edges <= 1

    @property
    def dimension(self) -> int:
        if self.degenerate:
            raise DomainError("degenerate vertex has no moduli space")
        return self.twisted - 3 + self.untwisted

    @property
    def sign(self) -> int:
        """The weight sign s of the fixed point under the vertex: +1 or -1."""
        return 1 if self.side == "zero" else -1


@dataclass(frozen=True)
class ContributionTemplate:
    """A graph's contribution with the lambda splitting left unexpanded.

    ``prefactor`` collects the labelling multiplicity, the gluing factor, the
    insertion and central-component signs and the bare-vertex numerator
    signs; ``t_power_fixed`` the matching powers of t.  ``series_vertices``
    are the vertices carrying a psi geometric series.
    """

    prefactor: Rational
    t_power_fixed: int
    series_vertices: tuple[VertexModuli, ...]


def enumerate_family(kind: FamilyKind, k: int, j: int
                     ) -> tuple[LocalizationGraph, int]:
    """Canonical representative and labelling count of family ``j``.

    Kind "A" (k >= 6): points 1, 2 over 0, point 3 over infinity, j of the
    remaining k-3 points over infinity; C(k-3, j) labellings.  Kind "B"
    (k >= 4): points 1, 2 over 0, j of the remaining k-2 points over
    infinity; C(k-2, j) labellings.
    """
    free = _free_labels(kind, k)
    if not 0 <= j <= free:
        raise DomainError(f"family index j={j} outside 0..{free}")
    infty = frozenset(range(k - j + 1, k + 1))
    infty |= {3} if kind == "A" else set()
    zero = frozenset(range(1, k + 1)) - infty
    return LocalizationGraph(k, zero, infty), comb(free, j)


def _free_labels(kind: FamilyKind, k: int) -> int:
    # labels the insertion leaves free; family j puts j of them over infinity
    if kind not in ("A", "B"):
        raise DomainError(f"family kind must be 'A' or 'B', not {kind!r}")
    _check_even_k(k, 6 if kind == "A" else 4)
    return k - 3 if kind == "A" else k - 2


def vertex_moduli_of(graph: LocalizationGraph
                     ) -> tuple[VertexModuli, VertexModuli]:
    """Apply the parity rule at each vertex; degenerate vertices pass through."""
    return (_moduli_for("zero", len(graph.over_zero)),
            _moduli_for("infty", len(graph.over_infty)))


def _moduli_for(side: Side, half_edges: int) -> VertexModuli:
    if half_edges <= 1:
        return VertexModuli(side, half_edges, 0, 0)
    if half_edges % 2:
        return VertexModuli(side, half_edges, half_edges + 1, 0)
    return VertexModuli(side, half_edges, half_edges, 1)


def vertex_integral(twisted: int, untwisted: int, psi_power: int,
                    lambda_index: int) -> Rational:
    """Integral of psi**psi_power * lambda_{lambda_index} over vertex moduli.

    Zero off the top degree (psi_power + lambda_index must equal the
    dimension twisted - 3 + untwisted); otherwise a D or d value according to
    whether the space carries an untwisted point.  The 0-dimensional space
    (2 twisted + 1 untwisted) integrates the fundamental class to 1/2.
    """
    if untwisted not in (0, 1):
        raise DomainError("untwisted point count must be 0 or 1")
    if twisted < 2 or twisted % 2:
        raise DomainError("twisted point count must be an even integer >= 2")
    if psi_power < 0 or lambda_index < 0:
        return ZERO
    if psi_power + lambda_index != twisted - 3 + untwisted:
        return ZERO
    if untwisted == 0:
        return closed_D(lambda_index, twisted)
    return closed_d(lambda_index, twisted)


def contribution_template(graph: LocalizationGraph, multiplicity: int,
                          insertion: FamilyKind) -> ContributionTemplate:
    """Assemble every factor of a graph's contribution except the psi series."""
    _check_insertion(graph, insertion)
    _check_int("multiplicity", multiplicity, 1)
    prefactor = Rational(multiplicity) * HALF  # central component's 1/2
    t_power = 0
    if insertion == "A":
        prefactor = -prefactor  # t * t * (-t)
        t_power += 3
    else:
        t_power += 2  # t * t
    prefactor = -prefactor  # central 1/(-t^2)
    t_power -= 2
    series = []
    for vertex in vertex_moduli_of(graph):
        if vertex.half_edges == 0:
            # bare vertex: numerator factor s*t, nothing else
            prefactor *= vertex.sign
            t_power += 1
        elif vertex.half_edges >= 2:
            prefactor *= 2  # the node's gluing factor
            series.append(vertex)
        # one half-edge: the point sits on the central component; no factor
    return ContributionTemplate(prefactor, t_power, tuple(series))


def graph_contribution(graph: LocalizationGraph, multiplicity: int,
                       insertion: FamilyKind, i: int) -> LaurentPolynomial:
    """The graph's exact contribution to the kind-``insertion`` integral.

    Read off the convolution of its vertices' signed closed families (see
    the module docstring); supported on a single power of t.
    """
    _check_index(i)
    families = values.closed_families((graph.k - 2) // 2, graph.k)
    power, numerators = _graph_numerators(graph, multiplicity, insertion,
                                          families)
    return _unscaled({power + i: numerators[i]} if i < len(numerators)
                     else {}, i)


def _graph_numerators(graph: LocalizationGraph, multiplicity: int,
                      insertion: FamilyKind, families) -> tuple[int, list]:
    # (power, numerators): the graph adds numerators[i] / 2**(i+1) at
    # t**(power + i), and nothing past the list.  The prefactor is
    # +-multiplicity * 2**(n-1), and the n families' scaling leaves 2**(i+n).
    # ``families`` is the closed (D, d) pair, indexed by a vertex's
    # untwisted point count: D has none, d one.
    template = contribution_template(graph, multiplicity, insertion)
    series = template.series_vertices
    numerators = [int(template.prefactor * 2 / 2 ** len(series))]
    power = template.t_power_fixed
    for vertex in series:
        m = vertex.dimension
        family = families[vertex.untwisted][vertex.twisted]
        family = [-c if vertex.sign < 0 and (m - ell) % 2 == 0 else c
                  for ell, c in enumerate(family)]
        numerators = kernels.convolve(numerators, family)
        power -= m + 1
    return power, numerators


def _graph_sum(kind: FamilyKind, k: int, first_j: int) -> dict[int, dict]:
    # lambda index i -> t-power -> summed numerators of families first_j..
    free = _free_labels(kind, k)
    # no vertex of a k-point graph has more points, nor a higher genus
    families = values.closed_families((k - 2) // 2, k)
    sums: dict[int, dict[int, int]] = {}
    for j in range(first_j, free + 1):
        graph, multiplicity = enumerate_family(kind, k, j)
        power, numerators = _graph_numerators(graph, multiplicity, kind,
                                              families)
        for i, numerator in enumerate(numerators):
            terms = sums.setdefault(i, {})
            terms[power + i] = terms.get(power + i, 0) + numerator
    return sums


def _unscaled(numerators: dict[int, int], i: int) -> LaurentPolynomial:
    return LaurentPolynomial((power, values._unscale(numerator, i))
                             for power, numerator in numerators.items())


def auxiliary_integrals(kind: FamilyKind, k: int) -> list[LaurentPolynomial]:
    """The full graph sum for every i = 0..(k-2)/2; each must come out zero.

    One pass over the graphs.  Returned (rather than asserted) so callers
    can check emptiness and report any survivor terms.
    """
    sums = _graph_sum(kind, k, 0)
    return [_unscaled(sums.get(i, {}), i) for i in range((k - 2) // 2 + 1)]


def auxiliary_integral(kind: FamilyKind, k: int, i: int) -> LaurentPolynomial:
    """The full graph sum for lambda_i; zero once i exceeds (k-2)/2."""
    _check_index(i)
    integrals = auxiliary_integrals(kind, k)
    return integrals[i] if i < len(integrals) else LaurentPolynomial.zero()


def localization_D(i: int, k: int) -> Rational:
    """D(i, k) re-derived from the graph sum alone.

    The j = 0 family contributes D(i, k) * t**(i - (k-3)); the vanishing of
    the full sum therefore pins D(i, k) to minus the remaining families'
    coefficient at that power.
    """
    return _extract("A", k, i, expected_power=i - (k - 3))


def localization_d(i: int, k: int) -> Rational:
    """d(i, k) re-derived from the graph sum alone (j = 0 family isolated)."""
    return _extract("B", k, i, expected_power=i - (k - 2))


def _extract(kind: FamilyKind, k: int, i: int, expected_power: int) -> Rational:
    _check_index(i)
    sums = _graph_sum(kind, k, 1)
    rest = _unscaled(sums.get(i, {}), i)
    stray = set(rest.support()) - {expected_power}
    if stray:
        raise VerificationError(
            f"graph sum for kind {kind}, k={k}, i={i} has unexpected "
            f"t-powers {sorted(stray)}", key=(kind, k, i), computed=rest)
    return -rest.coefficient(expected_power)


def _check_insertion(graph: LocalizationGraph, insertion: FamilyKind) -> None:
    if insertion == "A":
        placed = ({1, 2} <= graph.over_zero and 3 in graph.over_infty)
    elif insertion == "B":
        placed = {1, 2} <= graph.over_zero
    else:
        raise DomainError(f"insertion must be 'A' or 'B', not {insertion!r}")
    if not placed:
        raise DomainError(
            f"graph is inconsistent with the kind-{insertion} point placement")
