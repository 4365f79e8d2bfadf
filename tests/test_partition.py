from collections import Counter
from itertools import combinations, product

import pytest

from shellability import cache, partition
from shellability.complexes import face, face_vertices, from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.partition import (
    _exact_cover_assignment,
    _h_vector,
    _tree_components_of_edge_part,
    _two_private_facets,
    band_complex,
    is_partitionable,
    verify_partition,
)
from shellability.shelling import ShellingCertificate, ShellingDecision, is_shellable

from conftest import DUNCE_HAT_FACETS, RP2_FACETS, corpus
from oracles import naive_exact_cover_assignment


# --- independent oracle: try every facet -> bottom assignment ----------------

def _interval(tau: frozenset, sigma: frozenset):
    free = list(sigma - tau)
    for bits in range(1 << len(free)):
        yield tau | frozenset(free[i] for i in range(len(free)) if bits >> i & 1)


def oracle_partitionable(c) -> bool:
    facets = [frozenset(face_vertices(f)) for f in c.facets]
    all_faces = {frozenset(face_vertices(f)) for f in c.faces()}
    candidate_bottoms = [list(_interval(frozenset(), sigma)) for sigma in facets]
    for bottoms in product(*candidate_bottoms):
        seen = set()
        good = True
        for sigma, tau in zip(facets, bottoms):
            for eta in _interval(tau, sigma):
                if eta in seen:
                    good = False
                    break
                seen.add(eta)
            if not good:
                break
        if good and seen == all_faces:
            return True
    return False


def test_verify_partition_simplex(simplex3):
    assert verify_partition(simplex3, {simplex3.facets[0]: 0})
    assert not verify_partition(simplex3, {simplex3.facets[0]: face({0})})


def test_verify_partition_triangle_boundary(hollow_triangle):
    ok = verify_partition(hollow_triangle, {
        face({0, 1}): 0,
        face({1, 2}): face({2}),
        face({0, 2}): face({0, 2}),
    })
    assert ok
    # swapping one bottom double-covers a vertex
    bad = verify_partition(hollow_triangle, {
        face({0, 1}): 0,
        face({1, 2}): face({1}),
        face({0, 2}): face({0, 2}),
    })
    assert not bad


def test_verify_partition_argument_errors(two_k2):
    with pytest.raises(ValueError):
        verify_partition(two_k2, {two_k2.facets[0]: 0})
    with pytest.raises(ValueError):
        verify_partition(two_k2, {two_k2.facets[0]: 0, two_k2.facets[1]: face({0})})


def test_verify_partition_rejects_a_facet_named_twice(hollow_triangle):
    valid = [(3, 0), (5, 4), (6, 6)]
    assert verify_partition(hollow_triangle, valid)
    with pytest.raises(ValueError):
        verify_partition(hollow_triangle, [(3, 3)] + valid)
    with pytest.raises(ValueError):
        verify_partition(hollow_triangle, valid + [(3, 0)])


def test_two_disjoint_edges_not_partitionable(two_k2):
    assert not is_partitionable(two_k2).partitionable
    assert not oracle_partitionable(two_k2)


def test_decisions(simplex3, delta5):
    assert is_partitionable(simplex3).partitionable
    assert is_partitionable(from_facets([])).partitionable
    assert is_partitionable(from_facets([{0}, {1}])).partitionable
    for n in (5, 6, 7):
        assert not is_partitionable(band_complex(2, n)).partitionable


def test_one_cycle_one_tree_component():
    cyc_plus_tree = from_facets([{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}])
    assert is_partitionable(cyc_plus_tree).partitionable
    two_trees = from_facets([{0, 1}, {1, 2}, {3, 4}])
    assert not is_partitionable(two_trees).partitionable


def test_certificates_verify_on_corpus():
    positives = 0
    for c in corpus(seed=41, count=80):
        decision = is_partitionable(c)
        if decision.partitionable:
            assert verify_partition(c, decision.certificate.assignment)
            positives += 1
        else:
            assert decision.certificate is None
    assert positives >= 40


def _agree_with_brute_force_assignments(inputs) -> tuple[int, int, int]:
    """Every complex with at most 2^12 facet -> bottom assignments, plus the
    ones on at most four facets whatever their count; returns how many were
    checked, how many of those have five facets or more, and how many are
    pure with a negative h-vector entry, which the oracle must reject."""
    checked = many_facets = h_negative = 0
    for c in inputs:
        if len(c.facets) > 4 and sum(f.bit_count() for f in c.facets) > 12:
            continue
        checked += 1
        many_facets += len(c.facets) >= 5
        expected = oracle_partitionable(c)
        assert is_partitionable(c).partitionable == expected
        if c.is_pure() and min(_h_vector(c)) < 0:
            assert expected is False, c.facets
            h_negative += 1
    return checked, many_facets, h_negative


def test_against_brute_force_assignments():
    checked, many_facets, h_negative = _agree_with_brute_force_assignments(
        corpus(seed=42, count=90, n_max=5) + corpus(seed=46, count=300, n_max=8, dim_cap=2, max_facets=10)
    )
    assert checked >= 380
    assert many_facets >= 15
    assert h_negative >= 9
    # the multi-facet draw: no single simplices
    checked, many_facets, h_negative = _agree_with_brute_force_assignments(
        corpus(seed=49, count=150, n_max=7, dim_cap=2, max_facets=12, multi_facet=True)
    )
    assert checked >= 120
    assert many_facets >= 15
    assert h_negative >= 13


def _passes_prefilters(c) -> bool:
    """The private-facet filter ``partition._decide_partition`` runs before
    the exact cover.  Its h-vector filter is left out on purpose, so that the
    exact cover is still compared with the naive search on pure inputs with a
    negative h-vector entry."""
    return not (c.dim >= 2 and _two_private_facets(c))


def test_exact_cover_matches_the_naive_search():
    """The exact cover against the search that tests every open row for a
    shared item, on complexes with up to twelve candidate facets."""
    checked = negatives = 0
    inputs = corpus(seed=47, count=300, n_max=8, max_facets=12) + corpus(
        seed=48, count=300, n_max=9, max_facets=12
    )
    for c in inputs:
        if not _passes_prefilters(c):
            continue
        checked += 1
        got = _exact_cover_assignment(c)
        assert got == naive_exact_cover_assignment(c), c.facets
        if got is None:
            negatives += 1
        else:
            assert verify_partition(c, got)
    assert checked >= 521
    assert negatives >= 44


def test_shellable_implies_partitionable_on_corpus():
    """The implication, checked by the filters and the exact cover alone: the
    decider itself returns a shellable complex's shelling intervals."""
    shellable = 0
    for c in corpus(seed=43, count=80) + corpus(seed=51, count=120, n_max=7, multi_facet=True):
        if is_shellable(c).shellable:
            assignment = partition._decide_partition(c)
            assert assignment is not None and verify_partition(c, assignment), c.facets
            shellable += 1
    assert shellable >= 150


def test_shellable_inputs_get_the_shelling_intervals():
    """The certificate of a shellable complex is its shelling's restriction
    intervals [R(F_i), F_i], sorted by facet."""
    shellable = 0
    for c in corpus(seed=43, count=80) + corpus(seed=50, count=150, n_max=7, multi_facet=True):
        shelling = is_shellable(c).certificate
        if shelling is None:
            continue
        assignment = is_partitionable(c).certificate.assignment
        assert assignment == tuple(sorted(zip(shelling.ordering, shelling.restriction_sets)))
        assert verify_partition(c, assignment)
        shellable += 1
    assert shellable >= 150


@pytest.mark.parametrize("facets", [RP2_FACETS, DUNCE_HAT_FACETS], ids=["rp2", "dunce_hat"])
def test_nonshellable_partitionable_inputs_run_the_exact_cover(monkeypatch, facets):
    calls = []
    real = partition._exact_cover_assignment

    def recorded(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(partition, "_exact_cover_assignment", recorded)
    c = from_facets(facets)
    cache.clear_all_caches()
    try:
        decision = is_partitionable(c)
    finally:
        cache.clear_all_caches()
    assert not is_shellable(c).shellable
    assert decision.partitionable and verify_partition(c, decision.certificate.assignment)
    assert len(calls) == 1


def _recorded_exact_cover(monkeypatch) -> list:
    calls = []
    real = partition._exact_cover_assignment

    def recorded(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(partition, "_exact_cover_assignment", recorded)
    return calls


@pytest.mark.parametrize("facets, h, reaches_cover", [
    ([{0, 1}, {2, 3}], [1, 2, -1], False),
    (RP2_FACETS, [1, 3, 6, 0], True),
    (DUNCE_HAT_FACETS, [1, 5, 11, 0], True),
    ([{0, 1}, {2}], [1, 1, -1], True),
], ids=["2k2", "rp2", "dunce_hat", "nonpure_edge_and_point"])
def test_h_vector_filter_named_cases(monkeypatch, facets, h, reaches_cover):
    """2K2's h_2 = -1 rejects it before the exact cover; RP2 and the dunce
    hat pass with h_3 = 0.  The nonpure {01, 2} gives h_2 = -1 by the same
    formula, yet [∅, 01] and [2, 2] partition it: the filter must not fire."""
    c = from_facets(facets)
    assert _h_vector(c) == h
    calls = _recorded_exact_cover(monkeypatch)
    assignment = partition._decide_partition(c)
    assert len(calls) == reaches_cover
    if reaches_cover:
        assert verify_partition(c, assignment)
    else:
        assert assignment is None and not oracle_partitionable(c)


def test_no_pure_input_with_a_negative_h_entry_reaches_the_exact_cover(monkeypatch):
    """The exact cover runs on the canonical representatives; none is pure
    with a negative h-vector entry, while a nonpure one with a negative entry
    by the pure formula still gets there and is partitionable."""
    inputs = corpus(seed=46, count=300, n_max=8, dim_cap=2, max_facets=10) + corpus(
        seed=51, count=120, n_max=7, multi_facet=True
    )
    calls = _recorded_exact_cover(monkeypatch)
    cache.clear_all_caches()
    try:
        decisions = [is_partitionable(c) for c in inputs]
    finally:
        cache.clear_all_caches()
    rejected = sum(
        1 for c, decision in zip(inputs, decisions)
        if c.is_pure() and min(_h_vector(c)) < 0 and not decision.partitionable
    )
    assert rejected >= 24
    assert not [c.facets for c in calls if c.is_pure() and min(_h_vector(c)) < 0]
    kept = [
        (c, decision) for c, decision in zip(inputs, decisions)
        if not c.is_pure() and min(_h_vector(c)) < 0 and decision.partitionable
        and not is_shellable(c).shellable
    ]
    assert kept
    for c, decision in kept:
        assert verify_partition(c, decision.certificate.assignment)


def test_interval_bottom_sizes_count_the_h_vector():
    """Stanley's identity: in a partition of a pure complex into intervals,
    h_j facets have a bottom of j vertices.  Checked on the shelling
    intervals and on the exact cover's assignment, whichever exist."""
    certificates = 0
    inputs = corpus(seed=41, count=80) + corpus(seed=43, count=80) + corpus(
        seed=50, count=150, n_max=7, multi_facet=True
    )
    for c in inputs:
        if not c.is_pure():
            continue
        h = _h_vector(c)
        shelling = is_shellable(c).certificate
        found = [_exact_cover_assignment(c)]
        if shelling is not None:
            found.append(tuple(zip(shelling.ordering, shelling.restriction_sets)))
        for assignment in filter(None, found):
            sizes = Counter(tau.bit_count() for _, tau in assignment)
            assert [sizes[j] for j in range(len(h))] == h, c.facets
            certificates += 1
    assert certificates >= 362


def test_shelling_intervals_that_do_not_partition_raise(monkeypatch, hollow_triangle):
    """Pairing the empty restriction set with every facet covers the empty
    face three times; the decider must not return that as a certificate."""
    ordering = hollow_triangle.facets
    wrong = ShellingDecision(True, ShellingCertificate(ordering, (0,) * len(ordering)))
    monkeypatch.setattr(partition, "is_shellable", lambda c: wrong)
    with pytest.raises(RuntimeError, match="do not partition"):
        is_partitionable(hollow_triangle)


def test_link_closure_on_corpus():
    for c in corpus(seed=44, count=40):
        if not is_partitionable(c).partitionable:
            continue
        for tau in sorted(c.faces())[:10]:
            assert is_partitionable(c.link(tau)).partitionable


def test_private_facet_filter_never_fires_on_partitionable():
    from shellability.partition import _two_private_facets
    for c in corpus(seed=45, count=80):
        if _two_private_facets(c):
            assert not is_partitionable(c).partitionable


def test_matching_complex_not_partitionable(complex_1a):
    assert not is_partitionable(complex_1a).partitionable
    from shellability.partition import _two_private_facets
    assert _two_private_facets(complex_1a)


def test_band_pattern_examples():
    # the cyclic band: every consecutive window shares d vertices with the next
    ind7 = independence_complex(cycle_graph(7))
    assert not is_partitionable(ind7).partitionable
    assert ind7.pure_skeleton(2).is_isomorphic(band_complex(2, 7))


def _bfs_tree_components(edges: list[tuple[int, int]]) -> int:
    """Components of the graph's edge part that are trees, by breadth-first search."""
    adjacent: dict[int, set[int]] = {}
    for a, b in edges:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    seen: set[int] = set()
    trees = 0
    for start in adjacent:
        if start in seen:
            continue
        reached = {start}
        frontier = [start]
        while frontier:
            frontier = [w for v in frontier for w in adjacent[v] if w not in reached]
            reached.update(frontier)
        seen |= reached
        degree_sum = sum(len(adjacent[v]) for v in reached)
        trees += degree_sum // 2 == len(reached) - 1
    return trees


def test_tree_components_match_a_breadth_first_count():
    """Every graph on at most five vertices, with its uncovered vertices kept
    as isolated 0-facets, which belong to no component of the edge part."""
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            covered = {v for e in edges for v in e}
            c = from_facets([set(e) for e in edges] + [{v} for v in range(n) if v not in covered])
            assert _tree_components_of_edge_part(c) == _bfs_tree_components(edges), edges
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024
