"""Graph enumeration, vertex moduli, contributions, and the vanishing sums."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from hyperhodge import cli, kernels, localization, values
from hyperhodge.algebra import LaurentPolynomial, laurent_sum
from hyperhodge.errors import DomainError, VerificationError
from hyperhodge.localization import (LocalizationGraph, VertexModuli,
                                     auxiliary_integral,
                                     contribution_template, enumerate_family,
                                     graph_contribution, graph_family,
                                     localization_D, localization_d,
                                     vertex_integral, vertex_moduli_of)
from hyperhodge.values import closed_D, closed_d, recursive_D, recursive_d


# ---------------------------------------------------------------------------
# graphs and families


def test_graph_partition_validation():
    LocalizationGraph(4, frozenset({1, 2}), frozenset({3, 4}))
    with pytest.raises(DomainError):
        LocalizationGraph(4, frozenset({1, 2, 3}), frozenset({3, 4}))
    with pytest.raises(DomainError):
        LocalizationGraph(4, frozenset({1, 2}), frozenset({4}))
    # an odd k is no hyperelliptic point count (its graph sum read the
    # closed family at k + 1, past the ones built)
    with pytest.raises(DomainError):
        LocalizationGraph(7, frozenset(range(1, 8)), frozenset())


def test_enumerate_family_multiplicities():
    _, mult = enumerate_family("A", 10, 0)
    assert mult == 1
    _, mult = enumerate_family("A", 10, 1)
    assert mult == 10 - 3
    _, mult = enumerate_family("B", 8, 3)
    assert mult == comb(6, 3) == 20


def test_enumerate_family_point_placement():
    graph, _ = enumerate_family("A", 8, 2)
    assert {1, 2} <= graph.over_zero
    assert 3 in graph.over_infty
    assert len(graph.over_infty) == 3
    graph, _ = enumerate_family("B", 8, 2)
    assert {1, 2, 3} <= graph.over_zero
    assert len(graph.over_infty) == 2


def test_enumerate_family_domain_errors():
    with pytest.raises(DomainError):
        enumerate_family("A", 8, 6)  # j > k - 3
    with pytest.raises(DomainError):
        enumerate_family("B", 8, 7)  # j > k - 2
    with pytest.raises(DomainError):
        enumerate_family("A", 4, 0)  # A needs k >= 6
    with pytest.raises(DomainError):
        enumerate_family("A", 7, 0)  # odd k
    with pytest.raises(DomainError):
        enumerate_family("C", 8, 0)
    for j in (2.5, 2.0, -1):  # range() refused the floats with TypeError
        with pytest.raises(DomainError):
            enumerate_family("B", 8, j)


@pytest.mark.parametrize("kind,k", [("A", 6), ("A", 12), ("B", 4), ("B", 12)])
def test_family_multiplicities_cover_all_labelings(kind, k):
    free = k - 3 if kind == "A" else k - 2
    top = free
    total = sum(enumerate_family(kind, k, j)[1] for j in range(top + 1))
    assert total == 2 ** free


# ---------------------------------------------------------------------------
# vertex moduli


def test_vertex_parity_rule():
    graph, _ = enumerate_family("A", 6, 3)  # 2 points over 0, 4 over infinity
    v0, vinf = vertex_moduli_of(graph)
    assert (v0.twisted, v0.untwisted) == (2, 1)
    assert (vinf.twisted, vinf.untwisted) == (4, 1)

    # 3 half-edges force a twisted node: 4 twisted points, dimension 1
    graph = LocalizationGraph(6, frozenset({1, 2, 4}), frozenset({3, 5, 6}))
    v0, vinf = vertex_moduli_of(graph)
    assert (v0.twisted, v0.untwisted) == (4, 0)
    assert v0.dimension == 1
    assert (vinf.twisted, vinf.untwisted) == (4, 0)


def test_degenerate_vertices():
    graph, _ = enumerate_family("B", 6, 0)
    _, vinf = vertex_moduli_of(graph)
    assert vinf.degenerate and vinf.half_edges == 0
    with pytest.raises(DomainError):
        vinf.dimension

    graph, _ = enumerate_family("A", 6, 0)
    v0, vinf = vertex_moduli_of(graph)
    assert vinf.degenerate and vinf.half_edges == 1
    assert not v0.degenerate
    assert (v0.twisted, v0.untwisted) == (6, 0)
    assert v0.dimension == 3


def test_vertex_integral_examples():
    assert vertex_integral(2, 1, 0, 0) == Fraction(1, 2)
    assert vertex_integral(4, 0, 1, 0) == Fraction(1, 2)
    assert vertex_integral(4, 0, 0, 1) == Fraction(1, 4)
    # off the top degree everything vanishes
    assert vertex_integral(4, 0, 0, 0) == 0
    assert vertex_integral(4, 0, 2, 1) == 0
    assert vertex_integral(2, 1, 1, 0) == 0
    assert vertex_integral(6, 1, 4, 0) == closed_d(0, 6)


def test_vertex_integral_validation():
    with pytest.raises(DomainError):
        vertex_integral(4, 2, 0, 0)
    with pytest.raises(DomainError):
        vertex_integral(3, 0, 0, 0)
    # the first two gave Fraction(1, 2), as if their floats were ints
    for args in ((4, 1, 1.0, 1), (4, 1.0, 1, 1), (4.0, 1, 1, 1),
                 (4, 0, 0, 1.5), (4, 0, -1.0, 0)):
        with pytest.raises(DomainError):
            vertex_integral(*args)


# ---------------------------------------------------------------------------
# contributions


def test_gluing_factor_in_template():
    # both vertices contracted: 2 * 2 * (1/2) = 2 survives in the prefactor
    graph, mult = enumerate_family("B", 8, 4)
    template = contribution_template(graph, mult, "B")
    assert abs(template.prefactor) == mult * 2
    # one contracted vertex: 2 * (1/2) = 1
    graph, mult = enumerate_family("B", 8, 1)
    template = contribution_template(graph, mult, "B")
    assert abs(template.prefactor) == mult


def test_contribution_of_lead_graphs():
    # single remaining family-0 graph carries exactly the integral itself
    for k in (6, 8, 12):
        for i in range((k - 2) // 2 + 1):
            graph, mult = enumerate_family("A", k, 0)
            assert graph_contribution(graph, mult, "A", i) \
                == LaurentPolynomial({i - (k - 3): closed_D(i, k)})
    for k in (4, 8, 12):
        for i in range((k - 2) // 2 + 1):
            graph, mult = enumerate_family("B", k, 0)
            assert graph_contribution(graph, mult, "B", i) \
                == LaurentPolynomial({i - (k - 2): closed_d(i, k)})


def test_contribution_cancels_for_balanced_split():
    # the lambda splitting of A_2 at k=6, i=1 cancels: 1/8 - 1/8
    graph, mult = enumerate_family("A", 6, 2)
    assert graph_contribution(graph, mult, "A", 1).is_zero()


def test_contribution_rejects_inconsistent_placement():
    bad = LocalizationGraph(6, frozenset({3, 4, 5, 6}), frozenset({1, 2}))
    with pytest.raises(DomainError):
        graph_contribution(bad, 1, "A", 0)
    with pytest.raises(DomainError):
        graph_contribution(bad, 1, "B", 0)


@pytest.mark.parametrize("kind,k", [("A", 6), ("A", 10), ("B", 4), ("B", 10)])
def test_each_graph_contributes_a_single_power(kind, k):
    offset = k - 3 if kind == "A" else k - 2
    top = k - 3 if kind == "A" else k - 2
    for j in range(top + 1):
        graph, mult = enumerate_family(kind, k, j)
        for i in range((k - 2) // 2 + 1):
            support = graph_contribution(graph, mult, kind, i).support()
            assert set(support) <= {i - offset}


# ---------------------------------------------------------------------------
# the vanishing integrals and the recursion extraction


@pytest.mark.parametrize("k", range(6, 17, 2))
def test_auxiliary_integral_A_vanishes(k):
    for i in range((k - 2) // 2 + 1):
        assert auxiliary_integral("A", k, i).is_zero()


@pytest.mark.parametrize("k", range(4, 17, 2))
def test_auxiliary_integral_B_vanishes(k):
    for i in range((k - 2) // 2 + 1):
        assert auxiliary_integral("B", k, i).is_zero()


def test_auxiliary_integral_beyond_genus_is_trivially_zero():
    assert auxiliary_integral("A", 8, 12).is_zero()
    assert auxiliary_integral("B", 6, 9).is_zero()


@pytest.mark.parametrize("k", range(6, 21, 2))
def test_graph_sum_rederives_D_recursion(k):
    for i in range((k - 2) // 2 + 1):
        assert localization_D(i, k) == recursive_D(i, k)


@pytest.mark.parametrize("k", range(4, 21, 2))
def test_graph_sum_rederives_d_recursion(k):
    for i in range((k - 2) // 2 + 1):
        assert localization_d(i, k) == recursive_d(i, k)


def test_stray_t_power_is_reported_with_the_rest_of_the_sum(monkeypatch,
                                                             capsys):
    # one t-power too many on the graphs with two half-edges over infinity
    # moves their terms off the power the j = 0 family sits at
    genuine = localization._template

    def shifted(insertion, zero_edges, infty_edges):
        sign, t_power, series = genuine(insertion, zero_edges, infty_edges)
        return sign, t_power + (infty_edges == 2), series

    monkeypatch.setattr(localization, "_template", shifted)
    k = 8
    rows = localization._graph_sum("A", k, 1)
    # the first i with a term off D(i, k)'s power in the j = 0 family
    i, rest, power = next(
        (i, rest, i - (k - 3))
        for i in range((k - 2) // 2 + 1)
        for rest in [localization._unscaled(rows, i)]
        if set(rest.support()) - {i - (k - 3)})
    with pytest.raises(VerificationError) as caught:
        graph_family("A", k)
    report = caught.value.report
    assert report.parameters == (("kind", "A"), ("k", k), ("i", i))
    # computed: the j >= 1 sum; expected: that sum cut to its expected power
    assert report.computed == rest
    assert report.expected == LaurentPolynomial(
        {power: rest.coefficient(power)})
    assert not report.passed
    # any value of the family fails alike, and the sweep reports it
    with pytest.raises(VerificationError) as again:
        localization_D((k - 2) // 2, k)
    assert again.value.report == report
    # inside the suite, not past it: d at k = 4 already has such a graph
    assert cli.main(["verify-localization", "--max-k", "8"]) == 1
    assert capsys.readouterr().out.startswith(
        "localization: FAILED after 0 passing checks\n"
        "identity graph-sum t-powers [kind=B, k=4, i=0]: FAIL\n")


def test_graph_sum_rejects_bad_input(monkeypatch):
    for bad in (("C", 8), ("A", 4), ("A", 7), ("B", 2), ("B", -2)):
        with pytest.raises(DomainError):
            graph_family(*bad)
        with pytest.raises(DomainError):
            auxiliary_integral(*bad, 0)
    with pytest.raises(DomainError):
        auxiliary_integral("B", 8, -1)
    with pytest.raises(DomainError):
        localization_D(-1, 8)
    with pytest.raises(DomainError):
        localization_d(0, 5)
    # a multiplicity is a labelling count: a positive int, never truncated
    graph, _ = enumerate_family("A", 8, 2)
    for multiplicity in (Fraction(3, 2), 0.1, 1.0, 0, -1):
        with pytest.raises(DomainError):
            contribution_template(graph, multiplicity, "A")
        with pytest.raises(DomainError):
            graph_contribution(graph, multiplicity, "A", 1)
    # a bad lambda index is refused before any graph is evaluated
    def refuse(*args, **kwargs):
        raise AssertionError("graph pass ran before the index check")

    monkeypatch.setattr(values, "closed_families", refuse)
    for i in (-1, 1.5):
        with pytest.raises(DomainError):
            graph_contribution(graph, 1, "A", i)
        with pytest.raises(DomainError):
            auxiliary_integral("A", 8, i)
        with pytest.raises(DomainError):
            localization_D(i, 8)


def test_graph_sum_never_reads_the_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the graph sum read the recursion")

    for name in ("recursion_step", "MemoTable", "recursive_D", "recursive_d",
                 "base_value"):
        monkeypatch.setattr(values, name, refuse)
    assert all(p.is_zero() for p in all_integrals("A", 16))
    assert localization_d(2, 8) == Fraction(11, 2)
    assert graph_family("A", 16) == values.closed_families(7, 16)[0][16]


# ---------------------------------------------------------------------------
# the per-graph convolution against the split-by-split Fraction route


def reference_contribution(graph, multiplicity, insertion, i):
    """A graph's contribution with lambda_i split vertex by vertex.

    Every split of i over the series vertices is evaluated through
    vertex_integral and multiplied out in Fractions, one at a time.
    """
    template = contribution_template(graph, multiplicity, insertion)
    series = template.series_vertices
    if len(series) == 0:
        splits = [()] if i == 0 else []
    elif len(series) == 1:
        splits = [(i,)]
    else:
        splits = [(i - ell, ell) for ell in range(i + 1)]
    terms = []
    for split in splits:
        coefficient, t_power = template.prefactor, template.t_power_fixed
        for vertex, part in zip(series, split):
            psi_power = vertex.dimension - part
            value = vertex_integral(vertex.twisted, vertex.untwisted,
                                    psi_power, part)
            # 1/(s*t - psi) contributes psi**m * s**(m+1) / t**(m+1)
            if vertex.sign < 0 and psi_power % 2 == 0:
                value = -value
            coefficient *= value
            t_power -= psi_power + 1
        terms.append((t_power, coefficient))
    return LaurentPolynomial(terms)


def reference_integral(kind, k, i):
    top = k - 3 if kind == "A" else k - 2
    return laurent_sum(reference_contribution(*enumerate_family(kind, k, j),
                                              kind, i)
                       for j in range(top + 1))


def all_integrals(kind, k):
    """auxiliary_integral(kind, k, i) for i = 0..(k-2)/2, off one pass."""
    rows = localization._graph_sum(kind, k, 0)
    return [localization._unscaled(rows, i) for i in range((k - 2) // 2 + 1)]


def graph_cases(k_max):
    for kind, k_min in (("A", 6), ("B", 4)):
        for k in range(k_min, k_max + 1, 2):
            yield kind, k


@pytest.mark.parametrize("kind,k", list(graph_cases(24)) + [("A", 60)])
def test_convolution_matches_the_split_route(kind, k):
    # k = 60 has multiplicities C(57, j) far above 2**53
    top = k - 3 if kind == "A" else k - 2
    i_top = (k - 2) // 2 + 1 if k <= 24 else 1
    for j in range(top + 1):
        graph, mult = enumerate_family(kind, k, j)
        for i in range(i_top + 1):
            assert graph_contribution(graph, mult, kind, i) \
                == reference_contribution(graph, mult, kind, i), (j, i)


@pytest.mark.parametrize("kind,k", list(graph_cases(30)))
def test_bulk_graph_sum_matches_the_single_queries(kind, k):
    # one graph_family pass against the per-value reads, and one _graph_sum
    # pass over every i against auxiliary_integral
    family = graph_family(kind, k)
    single = localization_D if kind == "A" else localization_d
    assert len(family) == (k - 2) // 2 + 1
    for i in range(len(family) + 1):
        expected = Fraction(family[i], 2 ** (i + 1)) if i < len(family) else 0
        assert single(i, k) == expected
    integrals = all_integrals(kind, k)
    for i in range(len(integrals) + 1):
        expected = integrals[i] if i < len(integrals) else LaurentPolynomial()
        assert auxiliary_integral(kind, k, i) == expected


def closed_families_with_faults(genuine):
    # an int and a Fraction fault in each kind, at vertex point counts the
    # graph sums read from k = 10 on
    def faulty(degree, k_max):
        D, d = genuine(degree, k_max)
        for family, k, i, fault in ((D, 10, 2, 1), (D, 12, 1, Fraction(1, 3)),
                                    (d, 8, 1, -2), (d, 12, 3, Fraction(-5, 7))):
            if k <= k_max and i < len(family[k]):
                family[k] = family[k][:i] + [family[k][i] + fault] \
                    + family[k][i + 1:]
        return D, d
    return faulty


@pytest.mark.parametrize("faulty", [False, True], ids=["closed", "faults"])
def test_paired_pass_equals_graph_by_graph_sum(monkeypatch, faulty):
    families = values.closed_families
    if faulty:
        families = closed_families_with_faults(families)
    # built once per bound: graph_contribution reads them per graph and i
    monkeypatch.setattr(values, "closed_families", lru_cache(families))
    survivors = 0
    for kind, k in graph_cases(60):
        paired = all_integrals(kind, k)
        by_graph = [[] for _ in paired]
        for j in range(k - 2 if kind == "A" else k - 1):
            graph, multiplicity = enumerate_family(kind, k, j)
            for i, terms in enumerate(by_graph):
                terms.append(graph_contribution(graph, multiplicity, kind, i))
        assert paired == [laurent_sum(terms) for terms in by_graph], (kind, k)
        survivors += sum(not integral.is_zero() for integral in paired)
    assert (survivors > 0) == faulty


def test_graph_sum_runs_one_convolution_per_mirror_pair(monkeypatch):
    # graphs with one series vertex need no product; the other graphs pair
    # up with their mirrors, the middle one alone: (k - 2) / 2 products
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return genuine(*args, **kwargs)

    genuine = kernels.convolve
    monkeypatch.setattr(kernels, "convolve", counting)
    for kind, k in graph_cases(40):
        calls.clear()
        graph_family(kind, k)
        assert len(calls) == (k - 2) // 2, (kind, k)


@pytest.fixture
def faulty_d8(monkeypatch):
    """values.closed_families with 2**3 * d(2, 8) off by one."""
    genuine = values.closed_families

    def faulty(degree, k_max):
        D, d = genuine(degree, k_max)
        if k_max >= 8 and degree >= 2:
            d[8] = d[8][:2] + [d[8][2] + 1] + d[8][3:]
        return D, d

    # the closed values are cached; keep faulty ones out of other tests
    closed_D.cache_clear()
    closed_d.cache_clear()
    monkeypatch.setattr(values, "closed_families", faulty)
    yield
    closed_D.cache_clear()
    closed_d.cache_clear()


def test_fault_in_a_closed_family_fails_the_sweep(faulty_d8, capsys):
    assert closed_d(2, 8) == Fraction(45, 8)  # the fault is live
    assert cli.main(["verify-localization", "--max-k", "12"]) == 1
    # k ascending, D before d: d at k = 4, both at k = 6, D and two d at 8;
    # no j >= 1 graph at k = 8 reads d(2, 8), so the graph value is sound
    assert capsys.readouterr().out == (
        "localization: FAILED after 14 passing checks\n"
        "identity graph-vs-closed [kind=d, i=2, k=8]: FAIL\n"
        "  computed: 11/2\n"
        "  expected: 45/8\n")


def test_fault_survivors_match_the_split_route(faulty_d8):
    survivors = {(kind, k, i): integral
                 for kind, k in graph_cases(30)
                 for i, integral in enumerate(all_integrals(kind, k))
                 if not integral.is_zero()}
    expected = {(kind, k, i): reference_integral(kind, k, i)
                for kind, k in graph_cases(30)
                for i in range((k - 2) // 2 + 1)}
    assert survivors
    assert survivors == {key: integral for key, integral in expected.items()
                         if not integral.is_zero()}


def faulty_template(fault):
    """localization._template with ``fault`` applied to what it returns."""
    genuine = localization._template

    def faulty(insertion, zero_edges, infty_edges):
        return fault(insertion, *genuine(insertion, zero_edges, infty_edges))
    return faulty


# each fault leaves every graph sum vanishing, so only the values read off
# them can show it; the first report is at the first key the walk reaches
@pytest.mark.parametrize("fault,first", [
    pytest.param(lambda kind, sign, power, series: (-sign, power, series),
                 "graph-vs-closed [kind=d, i=0, k=4]", id="insertion-sign"),
    pytest.param(lambda kind, sign, power, series: (sign, power + 1, series),
                 "graph-sum t-powers [kind=B, k=4, i=0]", id="t-power"),
    pytest.param(lambda kind, sign, power, series:
                 (-sign if kind == "B" else sign, power, series),
                 "graph-vs-closed [kind=d, i=0, k=4]", id="kind-B-sign"),
])
def test_graph_sum_template_fault_fails_the_sweep(monkeypatch, capsys, fault,
                                                  first):
    monkeypatch.setattr(localization, "_template", faulty_template(fault))
    assert all(p.is_zero() for p in all_integrals("A", 10))
    assert cli.main(["verify-localization", "--max-k", "12"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("localization: FAILED after 0 passing checks\n")
    assert f"identity {first}: FAIL\n" in out


def test_swapped_vertex_sides_fail_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(VertexModuli, "sign", property(
        lambda vertex: -1 if vertex.side == "zero" else 1))
    assert all(p.is_zero() for p in all_integrals("B", 10))
    assert cli.main(["verify-localization", "--max-k", "12"]) == 1
    assert capsys.readouterr().out == (
        "localization: FAILED after 1 passing checks\n"
        "identity graph-vs-closed [kind=d, i=1, k=4]: FAIL\n"
        "  computed: -1/2\n"
        "  expected: 1/2\n")
