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

Two insertion recipes are wired in: kind "A" integrates ev_1*(0) ev_2*(0)
ev_3*(inf) lambda_i (points 1, 2 over 0, point 3 over infinity) and kind "B"
integrates ev_1*(0) ev_2*(0) lambda_i.  Both live on a k-dimensional space
and sit in degree k - 1 < k resp. k - 2 < k, so the full graph sum must
vanish identically in t.  The j = 0 graph holds D(i, k) resp. d(i, k) at
t**(i+3-k) resp. t**(i+2-k), sign +1: ``graph_family`` reads each family off
the j >= 1 graphs, minus their row there, and ``graph_checks`` checks it.

Each graph is evaluated for every i at once, on ints.  A series vertex of
dimension m pairs psi**(m-l) with lambda_l: its family over l is the scaled
closed one off values.closed_families times s**(m-l+1), from 1/(s*t - psi).
The graph adds +-multiplicity * P[i] / 2**(i+1) at t**(t_power_fixed + i -
sum(m+1)), P the product of its one or two signed families.  Family j's
mirror j' = k-2-j (kind A) or k-j (B) swaps the half-edge counts over 0 and
infinity.  A paired graph has two series vertices; moving each to the other
side multiplies the term l_0 + l_inf = i by (-1)**(m_0-l_0+1+m_inf-l_inf+1),
so P_j'[i] = (-1)**(m_0+m_inf+i) * P_j[i] = (-1)**i * P_j[i]: the vertices
hold all k half-edges, so m_0 + m_inf = k - 4.  One convolution serves both.
Unpaired: j = 0, B's j = 1 (one series vertex, no product) and the middle
j = j'.  The pass sums into one int row per t-power, indexed by i.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, prod
from typing import Literal

from . import kernels, values
from .algebra import LaurentPolynomial, Rational, ZERO
from .errors import DomainError, IdentityReport, VerificationError
from .values import _check_even_k, _check_int, closed_D, closed_d

Side = Literal["zero", "infty"]
FamilyKind = Literal["A", "B"]


class LocalizationGraph(namedtuple("LocalizationGraph",
                                   "k over_zero over_infty")):
    """Two-vertex graph: marked-point labels split over 0 and infinity.

    The label sets are stored as frozensets, whatever iterable is passed.
    """

    __slots__ = ()

    def __new__(cls, k: int, over_zero, over_infty):
        _check_even_k(k, 2)
        over_zero, over_infty = frozenset(over_zero), frozenset(over_infty)
        if over_zero & over_infty:
            raise DomainError("a marked point cannot lie over both 0 and infinity")
        if over_zero | over_infty != frozenset(range(1, k + 1)):
            raise DomainError(f"labels must partition 1..{k}")
        return super().__new__(cls, k, over_zero, over_infty)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: check it too
        return cls(*fields)


class VertexModuli(namedtuple("VertexModuli",
                              "side half_edges twisted untwisted")):
    """Moduli space of one vertex's contracted component.

    ``side`` is "zero" or "infty"; ``twisted``/``untwisted`` count its marked
    points, the forced node included; both are 0 for a degenerate vertex (0
    or 1 half-edges), which has no contracted component at all.
    """

    __slots__ = ()

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


class ContributionTemplate(namedtuple(
        "ContributionTemplate", "prefactor t_power_fixed series_vertices")):
    """A graph's contribution with the lambda splitting left unexpanded.

    ``prefactor`` collects the labelling multiplicity, the gluing factor, the
    insertion and central-component signs and the bare-vertex numerator
    signs; ``t_power_fixed`` the matching powers of t.  ``series_vertices``
    are the vertices carrying a psi geometric series.
    """

    __slots__ = ()


def enumerate_family(kind: FamilyKind, k: int, j: int
                     ) -> tuple[LocalizationGraph, int]:
    """Canonical representative and labelling count of family ``j``.

    Kind "A" (k >= 6): points 1, 2 over 0, point 3 over infinity, j of the
    remaining k-3 points over infinity; C(k-3, j) labellings.  Kind "B"
    (k >= 4): points 1, 2 over 0, j of the remaining k-2 points over
    infinity; C(k-2, j) labellings.
    """
    free = _free_labels(kind, k)
    _check_int("family index j", j, 0)
    if j > free:
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
    if not all(isinstance(n, int) and not isinstance(n, bool)
               for n in (twisted, untwisted, psi_power, lambda_index)):
        raise DomainError("point counts and degrees must be integers")
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
    sign, t_power, series = _template(insertion, len(graph.over_zero),
                                      len(graph.over_infty))
    return ContributionTemplate(
        Rational(sign * multiplicity * 2 ** len(series), 2), t_power, series)


def _template(insertion: FamilyKind, zero_edges: int, infty_edges: int):
    # (sign, t-power, series vertices): t * t (times -t for "A") over the
    # central -t**2, then s*t per bare vertex (a lone half-edge sits on the
    # central component); prefactor sign * mult * 2 per series vertex / 2
    vertices = (_moduli_for("zero", zero_edges),
                _moduli_for("infty", infty_edges))
    bare = [vertex.sign for vertex in vertices if vertex.half_edges == 0]
    return ((1 if insertion == "A" else -1) * prod(bare),
            (1 if insertion == "A" else 0) + len(bare),
            tuple(v for v in vertices if v.half_edges >= 2))


def graph_contribution(graph: LocalizationGraph, multiplicity: int,
                       insertion: FamilyKind, i: int) -> LaurentPolynomial:
    """The graph's exact contribution to the kind-``insertion`` integral.

    Read off the product of its vertices' signed closed families (see the
    module docstring); supported on a single power of t.
    """
    _check_int("lambda index i", i, 0)
    template = contribution_template(graph, multiplicity, insertion)
    series = template.series_vertices
    families = values.closed_families((graph.k - 2) // 2, graph.k)
    power, product = _product(template.t_power_fixed, series, families)
    scale = int(template.prefactor * 2 / 2 ** len(series))  # +-multiplicity
    return _unscaled({power: [scale * c for c in product]}, i)


def _product(t_power: int, series: tuple, families) -> tuple[int, list]:
    # (t-power of P[0], P); ``families``: closed (D, d), by untwisted count
    signed = []
    for vertex in series:
        m = vertex.dimension
        family = families[vertex.untwisted][vertex.twisted]
        if vertex.sign < 0:
            family = [c if (m - ell) % 2 else -c
                      for ell, c in enumerate(family)]
        signed.append(family)
        t_power -= m + 1
    return t_power, signed[0] if len(signed) == 1 else kernels.convolve(*signed)


def _graph_sum(kind: FamilyKind, k: int, first_j: int) -> dict[int, list]:
    # t-power -> numerators of families first_j.. summed by lambda index i;
    # no vertex has more points, nor a higher genus: no product outgrows a row
    free, top = _free_labels(kind, k), (k - 2) // 2
    families = values.closed_families(top, k)
    extra = 1 if kind == "A" else 0  # point 3 lies over infinity
    rows: dict[int, list] = {}
    for j in range(first_j, k // 2 - extra + 1):
        zero, infty = k - extra - j, extra + j  # swapped in the mirror
        sign, t_power, series = _template(kind, zero, infty)
        power, product = _product(t_power, series, families)
        even = odd = sign * comb(free, j)
        if infty < zero <= free + extra:  # mirror j' = zero - extra: j's
            # dimensions, t-power, sign: >= 2 half-edges a side, no bare vertex
            s = sign * comb(free, zero - extra)  # times (-1)**(k-4) = 1
            even, odd = even + s, odd - s
        row = rows.setdefault(power, [0] * (top + 1))
        for i, c in enumerate(product):
            row[i] += (odd if i % 2 else even) * c
    return rows


def _unscaled(rows: dict[int, list], i: int) -> LaurentPolynomial:
    return LaurentPolynomial((power + i, values._unscale(row[i], i))
                             for power, row in rows.items()
                             if i < len(row) and row[i])


def auxiliary_integral(kind: FamilyKind, k: int, i: int) -> LaurentPolynomial:
    """The full graph sum for lambda_i; zero once i exceeds (k-2)/2."""
    _check_int("lambda index i", i, 0)
    return _unscaled(_graph_sum(kind, k, 0), i)


def graph_family(kind: FamilyKind, k: int) -> list:
    """2**(i+1) * D(i, k) (kind "A") or d(i, k) ("B") for i = 0..(k-2)/2.

    One pass over the j >= 1 graphs; a term off the j = 0 graph's power
    raises VerificationError with the j >= 1 sum at the first i it reaches.
    """
    rows = _graph_sum(kind, k, 1)
    power = 3 - k if kind == "A" else 2 - k  # j = 0's; fixed, not _template's
    i = min((n for p, row in rows.items() if p != power
             for n, c in enumerate(row) if c), default=None)
    if i is not None:
        rest = _unscaled(rows, i)
        raise VerificationError(IdentityReport(
            "graph-sum t-powers", (("kind", kind), ("k", k), ("i", i)), rest,
            LaurentPolynomial({power + i: rest.coefficient(power + i)})))
    return [-c for c in rows.get(power, [0] * ((k - 2) // 2 + 1))]


def graph_checks(max_k: int):
    """The localization suite: the graph families against the closed ones."""
    def graph(kind, k):  # called lazily, so a stray t-power raises in the walk
        if kind == "D" and k < 6:
            return []  # the graph sum gives D from k = 6
        return graph_family("A" if kind == "D" else "B", k)
    return values.route_checks("graph-vs-closed", graph, max_k)


def localization_D(i: int, k: int) -> Rational:
    """D(i, k) re-derived from the graph sum alone; zero above the genus."""
    _check_int("lambda index i", i, 0)
    return _unscaled({0: graph_family("A", k)}, i).coefficient(i)


def localization_d(i: int, k: int) -> Rational:
    """d(i, k) re-derived from the graph sum alone; zero above the genus."""
    _check_int("lambda index i", i, 0)
    return _unscaled({0: graph_family("B", k)}, i).coefficient(i)


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
