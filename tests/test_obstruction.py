import random

import pytest

from shellability import cache, obstruction
from shellability.complexes import face_vertices, from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.obstruction import is_hereditary, obstruction_report
from shellability.partition import band_complex
from shellability.properties import PropertyKind, satisfies

from conftest import DUNCE_HAT_FACETS, cone, corpus, golden_classes, random_complex, relabel, suspension
from oracles import (
    hereditary_via_obstructions,
    hereditary_via_strong_obstructions,
    is_obstruction_via_deletions,
    naive_is_hereditary,
    naive_obstruction_report,
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
    for c in corpus(seed=61, count=50, n_max=5) + corpus(seed=66, count=50, n_max=5, multi_facet=True):
        assert obstruction_report(c, SH).is_obstruction == is_obstruction_via_deletions(c, SH)


def test_strong_definition_equivalence():
    for c in corpus(seed=62, count=35, n_max=5) + corpus(seed=67, count=35, n_max=5, multi_facet=True):
        for prop in PropertyKind:
            assert obstruction_report(c, prop).is_strong == strong_obstruction_by_definition(c, prop)


def test_hereditary_examples(simplex3, two_k2):
    assert is_hereditary(simplex3, SH) == (True, None)
    verdict, failing = is_hereditary(two_k2, SH)
    assert not verdict and failing == two_k2.vertices
    ind5 = independence_complex(cycle_graph(5))
    assert is_hereditary(ind5, SH)[0]


def test_hereditary_characterisations_agree():
    for c in corpus(seed=63, count=30, n_max=5) + corpus(seed=68, count=30, n_max=5, multi_facet=True):
        for prop in PropertyKind:
            direct = is_hereditary(c, prop)[0]
            assert direct == hereditary_via_obstructions(c, prop)
            assert direct == hereditary_via_strong_obstructions(c, prop)


def test_implication_metadata():
    implied_by_shellability = {PropertyKind.PARTITIONABLE, PropertyKind.SEQUENTIALLY_CM}
    for c in corpus(seed=65, count=50):
        if satisfies(c, SH):
            for weaker in implied_by_shellability:
                assert satisfies(c, weaker)


def test_obstruction_reports_on_bands():
    for n in (5, 6, 7):
        band = band_complex(2, n)
        for prop in PropertyKind:
            assert obstruction_report(band, prop).is_obstruction


def _with_two_apexes(rng: random.Random, base):
    """The base plus two to five facets, each a face of the base coned off by
    one or both of two new vertices.  Restricted to the base's vertices it is
    the base again."""
    a, b = 1 << base.n_vertices, 1 << (base.n_vertices + 1)
    faces = sorted(base.faces())
    extra = [rng.choice((a, b, a | b)) | rng.choice(faces) for _ in range(rng.randint(2, 5))]
    return from_facets(list(base.facets) + extra)


def _is_deep(c, prop) -> bool:
    """Every vertex deletion satisfies the property, but some restriction at
    least two vertices smaller fails it, so one level of deletions misses it."""
    deletions = [c.deletion(1 << v) for v in face_vertices(c.vertices)]
    return (all(satisfies(d, prop) for d in deletions)
            and not all(naive_is_hereditary(d, prop)[0] for d in deletions))


def test_class_recursion_matches_the_subset_scan(complex_1a):
    """Reports and hereditary verdicts against the plain subset scan, on the
    golden atlas classes, Ind(C_n), multi-facet random complexes, and
    obstructions with two apexes added, at least 20 of which are deep."""
    inputs = golden_classes()
    inputs += [independence_complex(cycle_graph(n)) for n in range(4, 10)]
    rng = random.Random(66)
    drawn = []
    while len(drawn) < 120:
        c = random_complex(rng, n_max=8, max_facets=10)
        if len(c.facets) >= 3:  # most small draws are a single simplex
            drawn.append(c)
    bases = [from_facets([{0, 1}, {2, 3}]), complex_1a, independence_complex(cycle_graph(6))]
    apexed = [from_facets([{0, 1}, {2, 3}, {0, 4, 5}, {3, 4, 5}])]
    apexed += [_with_two_apexes(rng, bases[k % 3]) for k in range(240)]
    assert all(_is_deep(apexed[0], prop) for prop in PropertyKind)
    for c in inputs + drawn + apexed:
        for prop in PropertyKind:
            assert obstruction_report(c, prop) == naive_obstruction_report(c, prop)
            assert is_hereditary(c, prop) == naive_is_hereditary(c, prop)
    deep = sum(_is_deep(c, prop) for c in apexed for prop in PropertyKind)
    assert deep >= 20


def test_restrictions_above_the_labeling_cap_are_scanned_once_each(monkeypatch):
    """Above one vertex past the labeling cap the largest-first scan runs
    alone, and the class recursion is never called: at most one decision per
    vertex subset.  Fourteen vertices leave four levels above the cap; a path
    that recursed over their deletions without a memo would make some 30,000
    decisions, and at twelve vertices fewer than 2^12 and go unseen."""
    calls = 0

    def counted(c, prop):
        nonlocal calls
        calls += 1
        return True

    monkeypatch.setattr(obstruction, "satisfies", counted)
    c = from_facets([{k, k + 1, (3 * k + 5) % 14} for k in range(13)])
    assert c.n_vertices == 14
    cache.clear_all_caches()
    try:
        assert obstruction._failing_restriction(c, SH) is None
    finally:
        cache.clear_all_caches()
    assert calls <= 2 ** 14


def test_the_hereditary_memo_is_keyed_on_classes(monkeypatch):
    """The one memo keyed on isomorphism classes: two labelings of the
    nonshellable 2K2 fill one entry and are decided once, and a second
    labeling of the hereditarily shellable Ind(C_5) adds no entry and no decision to
    those of its whole deletion tree."""
    decided = []
    decide = obstruction._decide_hereditary

    def counted(c, prop):
        decided.append(c)
        return decide(c, prop)

    monkeypatch.setattr(obstruction, "_decide_hereditary", counted)
    two_k2 = from_facets([{0, 1}, {2, 3}])
    ind_c5 = independence_complex(cycle_graph(5))
    cache.clear_all_caches()
    try:
        for c, holds in ((two_k2, False), (ind_c5, True)):
            mapping = dict(zip(c.vertex_ids(), (4, 0, 8, 2, 6, 1, 3)))
            before = len(obstruction._HEREDITARY_CACHE), len(decided)
            assert obstruction._hereditary(c, SH) is holds
            after = len(obstruction._HEREDITARY_CACHE), len(decided)
            assert obstruction._hereditary(relabel(c, mapping), SH) is holds
            assert (len(obstruction._HEREDITARY_CACHE), len(decided)) == after
            if not holds:
                assert after == (before[0] + 1, before[1] + 1)
        assert len(decided) > 3
    finally:
        cache.clear_all_caches()


@pytest.mark.parametrize("prop", ["shellable", None, "scm"])
def test_a_property_that_is_not_a_property_kind_raises(prop):
    """Only a PropertyKind names a decider: a name or None raises instead of
    reaching the sequential Cohen-Macaulay decider, which calls the
    nonshellable but Cohen-Macaulay dunce hat an instance."""
    dunce_hat = from_facets(DUNCE_HAT_FACETS)
    assert not satisfies(dunce_hat, SH)
    for check in (satisfies, obstruction_report, is_hereditary):
        with pytest.raises(ValueError, match=f"unknown property {prop!r}"):
            check(dunce_hat, prop)


def test_strong_test_reads_vertex_links_only():
    """The report's strong test reads the links of the vertices only, and the
    reference, which reads the link of every nonempty face, gives the same
    report on the golden classes, their cones and suspensions, Ind(C_n) and a
    seeded corpus, obstructions with a failing link among them."""
    golden = golden_classes()
    inputs = golden + [cone(c) for c in golden] + [suspension(c) for c in golden]
    inputs += [independence_complex(cycle_graph(n)) for n in range(4, 11)]
    inputs += corpus(4141, 120, n_max=7, multi_facet=True)
    failing = 0
    for c in inputs:
        for prop in PropertyKind:
            report = obstruction_report(c, prop)
            assert report == naive_obstruction_report(c, prop)
            failing += report.failing_link is not None
    assert failing >= 40
