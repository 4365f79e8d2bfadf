import pytest

from shellability.complexes import from_facets, full_simplex
from shellability.graphs import cycle_graph, independence_complex
from shellability.obstruction import is_hereditary, minimal_failing_restriction, obstruction_report
from shellability.partition import band_complex
from shellability.properties import IMPLIES, PropertyKind, satisfies

from conftest import corpus
from oracles import (
    hereditary_via_obstructions,
    hereditary_via_strong_obstructions,
    is_obstruction_via_deletions,
    strong_obstruction_by_definition,
)

SH = PropertyKind.SHELLABLE


def test_two_disjoint_edges_is_the_strong_obstruction(two_k2):
    report = obstruction_report(two_k2, SH)
    assert report.is_obstruction and report.is_strong
    for prop in PropertyKind:
        r = obstruction_report(two_k2, prop)
        assert r.is_obstruction and r.is_strong


def test_matching_complex_is_obstruction(complex_1a):
    report = obstruction_report(complex_1a, SH)
    assert report.is_obstruction and report.is_strong


def test_simplex_is_no_obstruction(simplex3):
    for prop in PropertyKind:
        assert not obstruction_report(simplex3, prop).is_obstruction


def test_ind_c6_is_obstruction(ind_c6):
    assert obstruction_report(ind_c6, SH).is_obstruction


def test_band_is_strong_obstruction(delta5):
    report = obstruction_report(delta5, SH)
    assert report.is_obstruction and report.is_strong


def test_apex_types_are_not_strong(complex_2):
    report = obstruction_report(complex_2, SH)
    assert report.is_obstruction
    assert not report.is_strong
    assert report.failing_link is not None
    # the failing link is a vertex whose link has two disjoint edges
    assert report.failing_link.bit_count() == 1


def test_failing_restriction_is_reported(two_k2):
    bigger = from_facets([{0, 1}, {2, 3}, {0, 4}])
    report = obstruction_report(bigger, SH)
    assert not report.is_obstruction
    assert report.failing_restriction is not None
    sub = bigger.restriction(report.failing_restriction)
    assert not satisfies(sub, SH)


def test_restriction_and_deletion_formulations_agree():
    for c in corpus(seed=61, count=50, n_max=5):
        assert obstruction_report(c, SH).is_obstruction == is_obstruction_via_deletions(c, SH)


def test_strong_definition_equivalence():
    for c in corpus(seed=62, count=35, n_max=5):
        for prop in PropertyKind:
            assert obstruction_report(c, prop).is_strong == strong_obstruction_by_definition(c, prop)


def test_hereditary_examples(simplex3, two_k2):
    assert is_hereditary(simplex3, SH) == (True, None)
    verdict, failing = is_hereditary(two_k2, SH)
    assert not verdict and failing == two_k2.vertices
    ind5 = independence_complex(cycle_graph(5))
    assert is_hereditary(ind5, SH)[0]


def test_hereditary_characterisations_agree():
    for c in corpus(seed=63, count=30, n_max=5):
        for prop in PropertyKind:
            direct = is_hereditary(c, prop)[0]
            assert direct == hereditary_via_obstructions(c, prop)
            assert direct == hereditary_via_strong_obstructions(c, prop)


def test_minimal_failing_restriction_examples(two_k2, complex_1a):
    # a disjoint extra edge is stripped away, leaving the four-vertex core
    padded = from_facets([{0, 1}, {2, 3}, {4, 5}])
    small = minimal_failing_restriction(padded, SH)
    assert small.is_isomorphic(two_k2)
    assert minimal_failing_restriction(complex_1a, SH) == complex_1a
    with pytest.raises(ValueError):
        minimal_failing_restriction(full_simplex(3), SH)


def test_minimal_failing_restriction_yields_obstructions():
    seeded = [
        band_complex(2, 5),
        band_complex(2, 6),
        band_complex(2, 7),
        independence_complex(cycle_graph(6)),
        independence_complex(cycle_graph(7)),
        from_facets([{0, 1}, {2, 3}, {4, 5}]),
        from_facets([{0, 1, 2}, {3, 4, 5}, {0, 3}]),
        from_facets([{0, 1, 2}, {0, 3, 4}]),
    ]
    produced = 0
    for c in seeded + corpus(seed=64, count=60):
        if satisfies(c, SH):
            continue
        result = minimal_failing_restriction(c, SH)
        assert obstruction_report(result, SH).is_obstruction
        produced += 1
    assert produced >= 10


def test_implication_metadata():
    assert IMPLIES[PropertyKind.SHELLABLE] == {
        PropertyKind.PARTITIONABLE,
        PropertyKind.SEQUENTIALLY_CM,
    }
    for c in corpus(seed=65, count=50):
        if satisfies(c, SH):
            for weaker in IMPLIES[SH]:
                assert satisfies(c, weaker)


def test_obstruction_reports_on_bands():
    for n in (5, 6, 7):
        band = band_complex(2, n)
        for prop in PropertyKind:
            assert obstruction_report(band, prop).is_obstruction
