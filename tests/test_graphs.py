import random
from itertools import combinations

import pytest

from shellability.complexes import face, from_facets
from shellability.graphs import (
    Graph,
    cycle_graph,
    graph_from_edges,
    independence_complex,
    independence_cycle_report,
    maximal_independent_sets,
)
from shellability.partition import band_complex

from conftest import relabel
from oracles import flag_round_trip, is_flag, minimal_nonfaces, non_edge_graph


def brute_mis(g: Graph) -> set:
    """Reference: filter all vertex subsets for maximal independence."""
    independent = []
    for bits in range(1 << g.n):
        if all(
            not (g.adjacency[a] >> b) & 1
            for a, b in combinations([v for v in range(g.n) if bits >> v & 1], 2)
        ):
            independent.append(bits)
    inds = set(independent)
    return {s for s in inds if not any(s != t and s & ~t == 0 for t in inds)}


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # symmetric violation
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # loop


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 2), (1, -1)])
def test_graph_from_edges_rejects_a_vertex_outside_the_range(edge):
    """Both ends: n is one past the last vertex, and a negative id would
    otherwise index the rows from the back."""
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\).*0\.\.2 \(n = 3\)"):
        graph_from_edges(3, [edge])


def test_mis_against_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = graph_from_edges(n, edges)
        assert set(maximal_independent_sets(g)) == brute_mis(g)


def test_independence_complex_examples(two_k2):
    ind4 = independence_complex(cycle_graph(4))
    assert set(ind4.facets) == {face({0, 2}), face({1, 3})}
    assert ind4.is_isomorphic(two_k2)
    ind5 = independence_complex(cycle_graph(5))
    assert ind5.dim == 1 and len(ind5.facets) == 5
    assert set(ind5.facets) == {face({k, (k + 2) % 5}) for k in range(5)}



def test_independence_complex_takes_the_sets_as_facets_without_absorption():
    """The maximal independent sets are already an antichain, so the complex
    built from them directly equals the one from_facets absorbs them into."""
    graphs = [cycle_graph(n) for n in range(3, 23)]
    graphs += [graph_from_edges(n, combinations(range(n), 2)) for n in range(1, 9)]
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(2, 12)
        joined = rng.randint(1, n - 1)  # the vertices from here on are isolated
        edges = [e for e in combinations(range(joined), 2) if rng.random() < 0.4]
        graphs.append(graph_from_edges(n, edges))
    for g in graphs:
        direct = independence_complex(g)
        absorbed = from_facets(maximal_independent_sets(g))
        assert (direct.facets, direct.vertices) == (absorbed.facets, absorbed.vertices)

def test_ind_c7_is_the_7_band():
    ind7 = independence_complex(cycle_graph(7))
    assert ind7.is_isomorphic(band_complex(2, 7))
    assert relabel(band_complex(2, 7), {k: 2 * k % 7 for k in range(7)}) == ind7


def test_ind_c6_is_the_matching_complex(ind_c6, complex_1a):
    assert ind_c6.is_isomorphic(complex_1a)
    # explicit witness map for the triangle labels (0,1,2) and (3,4,5)
    mapping = {0: 0, 1: 2, 2: 4, 3: 3, 4: 5, 5: 1}
    assert relabel(complex_1a, mapping) == ind_c6


def test_minimal_nonfaces_and_flag(hollow_triangle, two_k2):
    assert minimal_nonfaces(hollow_triangle) == [face({0, 1, 2})]
    flag, offenders = is_flag(hollow_triangle)
    assert not flag and offenders == (face({0, 1, 2}),)

    flag, offenders = is_flag(two_k2)
    assert flag and not offenders
    assert len(minimal_nonfaces(two_k2)) == 4


def test_independence_complexes_are_flag():
    rng = random.Random(72)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        ind = independence_complex(graph_from_edges(n, edges))
        assert is_flag(ind)[0]
        assert flag_round_trip(ind)


def test_non_edge_graph_round_trip(ind_c6):
    g = non_edge_graph(ind_c6)
    rebuilt = independence_complex(g)
    assert rebuilt.is_isomorphic(ind_c6)


def test_flag_round_trip_fails_for_hollow_triangle(hollow_triangle):
    assert not flag_round_trip(hollow_triangle)


def test_cycle_report_guards():
    with pytest.raises(Exception):
        independence_cycle_report(11)


@pytest.mark.parametrize("n_max", [0, 3])
def test_cycle_report_rejects_a_range_without_a_cycle(n_max):
    """Below n = 4 the range holds no case, so an ok report would be vacuous."""
    with pytest.raises(ValueError, match="n_max below 4"):
        independence_cycle_report(n_max)


def test_cycle_report_from_four_checks_one_case():
    report = independence_cycle_report(4)
    assert report.n_range == (4, 4) and [case.n for case in report.cases] == [4] and report.ok


def test_cycle_report_n10_above_canonical_cap():
    """The 10-cycle complex is above the labeling cap and its vertex
    deletions are not, so its restrictions are decided through the memo of
    hereditary verdicts, one isomorphism class at a time."""
    report = independence_cycle_report(10)
    assert report.ok
    top = [case for case in report.cases if case.n == 10][0]
    assert top.dim == 4 and top.is_obstruction and top.is_strong


def test_cycle_report_small():
    report = independence_cycle_report(7)
    assert report.ok
    by_n = {case.n: case for case in report.cases}
    assert not by_n[5].is_obstruction and by_n[5].shellable and by_n[5].hereditary_shellable
    assert by_n[4].is_obstruction and by_n[4].is_strong
    assert by_n[6].private_facet_pattern
    assert str(by_n[7].skeleton_h1) == "Z"
    assert by_n[7].top_skeleton_is_band
