"""The record types: repr, equality, hash, immutability and validation.

Failure messages print these reprs, the tests compare records by value,
and the validating records refuse bad fields when they are built.
"""

import pickle
from fractions import Fraction

import pytest

from hyperhodge import cli
from hyperhodge.errors import DomainError, IdentityReport, VerificationError
from hyperhodge.localization import (ContributionTemplate, LocalizationGraph,
                                     VertexModuli)
from hyperhodge.values import recursive_D, recursive_d

ZERO_SIDE = VertexModuli("zero", 4, 4, 1)
INFTY_SIDE = VertexModuli("infty", 2, 2, 1)

# (record, its exact repr, a record equal to it built by keyword, a record
# differing from it in one field)
RECORDS = {
    "IdentityReport": (
        IdentityReport("P(t) boundary", (("g", 1),), 0, 0),
        "IdentityReport(name='P(t) boundary', parameters=(('g', 1),), "
        "computed=0, expected=0)",
        IdentityReport(name="P(t) boundary", parameters=(("g", 1),),
                       computed=0, expected=0),
        IdentityReport("P(t) boundary", (("g", 2),), 0, 0)),
    "LocalizationGraph": (
        LocalizationGraph(4, frozenset({1, 2}), frozenset({3, 4})),
        "LocalizationGraph(k=4, over_zero=frozenset({1, 2}), "
        "over_infty=frozenset({3, 4}))",
        LocalizationGraph(k=4, over_zero={1, 2}, over_infty={3, 4}),
        LocalizationGraph(4, frozenset({1, 2, 3}), frozenset({4}))),
    "VertexModuli": (
        ZERO_SIDE,
        "VertexModuli(side='zero', half_edges=4, twisted=4, untwisted=1)",
        VertexModuli(side="zero", half_edges=4, twisted=4, untwisted=1),
        VertexModuli("infty", 4, 4, 1)),
    "ContributionTemplate": (
        ContributionTemplate(Fraction(6), 1, (ZERO_SIDE, INFTY_SIDE)),
        "ContributionTemplate(prefactor=Fraction(6, 1), t_power_fixed=1, "
        "series_vertices=(VertexModuli(side='zero', half_edges=4, twisted=4, "
        "untwisted=1), VertexModuli(side='infty', half_edges=2, twisted=2, "
        "untwisted=1)))",
        ContributionTemplate(prefactor=Fraction(6), t_power_fixed=1,
                             series_vertices=(ZERO_SIDE, INFTY_SIDE)),
        ContributionTemplate(Fraction(-6), 1, (ZERO_SIDE, INFTY_SIDE))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    record, text, _, _ = RECORDS[name]
    assert repr(record) == text
    assert str(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_are_by_fields(name):
    record, _, same, other = RECORDS[name]
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record, text, _, _ = RECORDS[name]
    field = text[len(name) + 1:].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


@pytest.mark.parametrize("kind, i, k", [
    ("D", -1, 4), ("D", 1.0, 4), ("D", 1, 3), ("D", 1, 0), ("d", 0, 4.0),
    ("d", "1", 4)])
def test_hodge_value_key_refuses_bad_fields(kind, i, k):
    # a value's key is a plain (kind, i, k) tuple; its query checks i and k
    with pytest.raises(DomainError):
        (recursive_D if kind == "D" else recursive_d)(i, k)


@pytest.mark.parametrize("k, over_zero, over_infty", [
    (4, {1, 2, 3}, {3, 4}),  # overlapping
    (4, {1, 2}, {4}),  # not a partition of 1..k
    (4, {1, 2}, {3, 4, 5}),
    (7, set(range(1, 8)), set()),  # odd k
    (4.0, {1, 2}, {3, 4}),
])
def test_localization_graph_refuses_bad_fields(k, over_zero, over_infty):
    with pytest.raises(DomainError):
        LocalizationGraph(k, over_zero, over_infty)


def test_localization_graph_freezes_its_label_sets():
    graph = LocalizationGraph(6, {1, 2, 4}, [3, 5, 6])
    assert type(graph.over_zero) is frozenset
    assert type(graph.over_infty) is frozenset
    assert graph == LocalizationGraph(6, frozenset({1, 2, 4}),
                                      frozenset({3, 5, 6}))
    assert hash(graph) == hash(LocalizationGraph(6, {4, 2, 1}, {6, 5, 3}))


def test_replaced_fields_are_checked_too():
    graph = LocalizationGraph(4, {1, 2}, {3, 4})
    moved = graph._replace(over_zero=[1, 2, 3], over_infty=[4])
    assert type(moved.over_zero) is frozenset
    with pytest.raises(DomainError):
        graph._replace(k=6)


def test_record_properties():
    assert (ZERO_SIDE.sign, INFTY_SIDE.sign) == (1, -1)
    assert (ZERO_SIDE.dimension, ZERO_SIDE.degenerate) == (2, False)
    assert VertexModuli("zero", 1, 0, 0).degenerate
    with pytest.raises(DomainError):
        VertexModuli("zero", 1, 0, 0).dimension
    report = IdentityReport("eqn", (("g", 2), ("k", 6)), 1, 2)
    assert not report.passed
    assert report.describe() == ("identity eqn [g=2, k=6]: FAIL\n"
                                 "  computed: 1\n  expected: 2")


def test_verification_error_survives_a_pickle_round_trip():
    # the exception is rebuilt from its args, so they hold the report
    report = IdentityReport("eqn", (("g", 2), ("k", 6)), 1, 2)
    copy = pickle.loads(pickle.dumps(VerificationError(report)))
    assert copy.report == report
    assert str(copy) == report.describe()


def test_describe_prints_list_values_element_by_element():
    report = IdentityReport("hat-transform roots",
                            (("g", 2), ("points", "1..3")),
                            [Fraction(1, 3), Fraction(0)], [Fraction(0)] * 2)
    assert report.describe() == (
        "identity hat-transform roots [g=2, points=1..3]: FAIL\n"
        "  computed: [1/3, 0]\n"
        "  expected: [0, 0]")


def test_injected_base_value_failure_text_is_pinned(inject_base_value,
                                                     capsys):
    inject_base_value(("D", 1, 4), Fraction(1, 5))
    assert cli.main(["verify", "--max-k", "8", "--max-g", "3"]) == 1
    # D(0, 4), compared before D(1, 4), is one passing check
    assert capsys.readouterr().out == (
        "identities: 532 checks passed\n"
        "closed-vs-recursive: FAILED after 1 passing checks\n"
        "identity closed-vs-recursive [kind=D, i=1, k=4]: FAIL\n"
        "  computed: 1/5\n"
        "  expected: 1/4\n")
