import random
from functools import reduce
from math import gcd
from operator import and_

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from shellability import cache, complexes, homology
from shellability.cohen_macaulay import is_sequentially_cm
from shellability.complexes import from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.homology import (
    HomologyGroup,
    boundary_matrix,
    reduced_homology,
    smith_normal_form,
)
from shellability.partition import band_complex, is_partitionable, verify_partition
from shellability.shelling import is_shellable

from conftest import DUNCE_HAT_FACETS, RP2_FACETS, corpus, full_simplex, homology_oracle_inputs
from oracles import dense_smith_normal_form, euler_characteristic, homology_group_by_degree


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)


def test_snf_hand_example():
    # gcd of entries 2, |det| = 8, so the invariant factors must be 2, 4
    assert smith_normal_form([[2, 4], [6, 8]]) == ([2, 4], 2)


def test_snf_zero_and_empty():
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[]]) == ([], 0)


def test_snf_torsion_classics():
    # projective-plane style boundary: a single C2 factor
    assert smith_normal_form([[2]]) == ([2], 1)
    factors, rank = smith_normal_form([[2, 0], [0, 3]])
    assert (factors, rank) == ([1, 6], 2)
    # bools and sympy Integers are integers too
    assert smith_normal_form([[True, 0], [0, sympy.Integer(3)]]) == ([1, 3], 2)


def _sympy_factors(m):
    sm = sympy_snf(sympy.Matrix(m))
    return sorted(abs(sm[i, i]) for i in range(min(len(m), len(m[0]))) if sm[i, i] != 0)


@pytest.mark.parametrize("matrix", [[[1.5, 2]], [[2.7, 0], [0, 3]], [[0.5]], [["1"]]],
                         ids=["float-row", "float-diagonal", "half", "string"])
def test_snf_rejects_entries_that_are_not_integers(matrix):
    """A float or a string entry is refused, not truncated to an integer."""
    with pytest.raises(TypeError):
        smith_normal_form(matrix)


def test_snf_against_rational_rank_and_sympy():
    rng = random.Random(21)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        factors, rank = smith_normal_form(m)
        assert rank == sympy.Matrix(m).rank()
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        if factors:
            entries = [abs(x) for row in m for x in row if x]
            assert factors[0] == gcd(*entries) if len(entries) > 1 else entries[0]
        assert _sympy_factors(m) == sorted(factors)


def _snf_matching_oracles(m):
    """``smith_normal_form(m)``, checked against the dense oracle and, on at
    most 64 cells, against sympy."""
    got = smith_normal_form(m)
    assert got == dense_smith_normal_form(m), m
    if m and m[0] and len(m) * len(m[0]) <= 64:
        assert got[0] == _sympy_factors(m), m
    return got


def test_snf_matches_oracles_on_boundary_matrices():
    inputs = corpus(seed=73, count=60, n_max=7, multi_facet=True)
    inputs += [independence_complex(cycle_graph(n)) for n in range(3, 10)]
    for c in inputs:
        for k in range(0, c.dim + 2):
            _snf_matching_oracles(boundary_matrix(c, k).entries)


def test_snf_matches_oracles_on_random_matrices():
    rng = random.Random(74)
    for _ in range(400):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        _snf_matching_oracles([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])


def test_snf_reduces_the_block_without_units_after_the_unit_pivots():
    """A ±1 boundary block next to a block with no unit entry, rows and
    columns shuffled: the same loop must finish what the unit pivots
    leave.  Half the cases couple the blocks by even entries below the
    boundary block."""
    rng = random.Random(75)
    no_unit = ([[2, 4], [6, 8]], [[2]], [[3, 0], [0, 6]], [[4, 6], [6, 9]], [[2, 0, 4], [0, 2, 6]])
    sources = [c for c in corpus(seed=76, count=12, n_max=5, multi_facet=True) if c.dim >= 1]
    for c in sources:
        unit = [list(r) for r in boundary_matrix(c, 1).entries]
        width = len(unit[0])
        for block in no_unit:
            for coupled in (False, True):
                m = [r + [0] * len(block[0]) for r in unit]
                m += [[rng.choice((-2, 0, 2)) if coupled else 0 for _ in range(width)] + list(r)
                      for r in block]
                rng.shuffle(m)
                order = list(range(len(m[0])))
                rng.shuffle(order)
                m = [[r[j] for j in order] for r in m]
                factors, _ = _snf_matching_oracles(m)
                if not coupled:
                    block_factors, _ = dense_smith_normal_form(block)
                    assert factors[0] == 1
                    assert [d for d in factors if d > 1] == [d for d in block_factors if d > 1]


def test_snf_matches_oracles_on_matrices_without_a_unit_entry():
    """Every first pivot is a non-unit: even entries, multiples of 3, or any
    entries from 2 to 30 in magnitude, up to 9×9, from a few entries to full.
    So the loop reduces remainders left in the pivot's column, in its row and
    in the rows that it does not divide."""
    rng = random.Random(77)
    pools = (range(-30, 31, 2), range(-30, 31, 3), [v for v in range(-30, 31) if abs(v) > 1])
    torsion = 0
    for _ in range(300):
        pool = [v for v in rng.choice(pools) if v]
        density = rng.choice((0.15, 0.4, 0.7, 1.0))
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        factors, _ = _snf_matching_oracles(m)
        torsion += any(d > 1 for d in factors)
    assert torsion >= 200


def test_boundary_squares_to_zero_on_corpus():
    for c in corpus(seed=22, count=30):
        for k in range(0, c.dim + 1):
            low = boundary_matrix(c, k)
            high = boundary_matrix(c, k + 1)
            if not low.entries or not high.cols:
                continue
            prod = matmul([list(r) for r in low.entries], [list(r) for r in high.entries])
            assert all(all(x == 0 for x in row) for row in prod)


def test_reduced_homology_spot_values(two_k2, hollow_triangle, delta5):
    assert reduced_homology(hollow_triangle, 1) == HomologyGroup(1)
    assert reduced_homology(hollow_triangle, 0) == HomologyGroup(0)
    assert reduced_homology(two_k2, 0) == HomologyGroup(1)
    assert reduced_homology(delta5, 1) == HomologyGroup(1)
    assert reduced_homology(delta5, 0).is_trivial()
    assert reduced_homology(delta5, 2).is_trivial()


def test_bands_have_circle_homology():
    for n in (5, 6, 7):
        assert reduced_homology(band_complex(2, n), 1) == HomologyGroup(1)


def test_independence_complex_skeleton_homology():
    ind7 = independence_complex(cycle_graph(7))
    assert reduced_homology(ind7.pure_skeleton(2), 1) == HomologyGroup(1)
    ind9 = independence_complex(cycle_graph(9))
    assert reduced_homology(ind9.pure_skeleton(3), 1) == HomologyGroup(1)


def test_independence_complexes_of_cycles_match_kozlov():
    """Kozlov (JCTA 1999): Ind(C_n) is S^{k-1} v S^{k-1} for n = 3k, S^{k-1}
    for n = 3k+1 and S^k for n = 3k+2.  From n = 10 on the complexes lie
    above the canonical-labeling cap; homology memoizes on raw facets, so they
    take the same path as the smaller ones."""
    for n in range(4, 14):
        k, r = divmod(n, 3)
        degree, rank = {0: (k - 1, 2), 1: (k - 1, 1), 2: (k, 1)}[r]
        c = independence_complex(cycle_graph(n))
        expected = {d: HomologyGroup(rank if d == degree else 0) for d in range(-1, c.dim + 1)}
        assert {k: reduced_homology(c, k) for k in range(-1, c.dim + 1)} == expected, n


def test_projective_plane_torsion_end_to_end():
    rp2 = from_facets(RP2_FACETS)
    assert {k: reduced_homology(rp2, k) for k in range(-1, rp2.dim + 1)} == {
        -1: HomologyGroup(0), 0: HomologyGroup(0), 1: HomologyGroup(0, (2,)), 2: HomologyGroup(0)
    }
    report = is_sequentially_cm(rp2)
    assert report.verdict is False
    w = report.witness
    assert (w.skeleton_dim, w.face, w.degree, str(w.group)) == (2, 0, 1, "C2")
    assert not is_shellable(rp2).shellable
    decision = is_partitionable(rp2)
    assert decision.partitionable
    assert verify_partition(rp2, decision.certificate.assignment)


def test_homology_is_label_independent():
    rng = random.Random(77)
    for c in corpus(seed=78, count=40, n_max=7, multi_facet=True):
        cache.clear_all_caches()
        expected = {k: reduced_homology(c, k) for k in range(-1, c.dim + 1)}
        for _ in range(3):
            ids = c.vertex_ids()
            relabelled = c.relabel(dict(zip(ids, rng.sample(range(12), len(ids)))))
            cache.clear_all_caches()
            groups = {k: reduced_homology(relabelled, k) for k in range(-1, relabelled.dim + 1)}
            assert groups == expected, c


def test_homology_does_not_canonicalize():
    cache.clear_all_caches()
    c = from_facets(RP2_FACETS)
    for k in range(-1, c.dim + 1):
        reduced_homology(c, k)
    assert not complexes._CANON_CACHE


def test_empty_complex_homology():
    empty = from_facets([])
    assert reduced_homology(empty, -1) == HomologyGroup(1)
    assert reduced_homology(from_facets([{0}]), -1).is_trivial()


def test_homology_above_dimension_is_zero(delta5):
    assert reduced_homology(delta5, 3).is_trivial()
    assert reduced_homology(delta5, 9).is_trivial()
    with pytest.raises(ValueError):
        reduced_homology(delta5, -2)


def test_euler_characteristic_examples(two_k2, delta5):
    assert euler_characteristic(full_simplex(3)) == 0
    assert euler_characteristic(two_k2) == 1
    assert euler_characteristic(delta5) == -1


def test_euler_characteristic_equals_alternating_betti_sum():
    for c in corpus(seed=23, count=40):
        groups = {k: reduced_homology(c, k) for k in range(-1, c.dim + 1)}
        alternating = sum((-1) ** k * g.betti for k, g in groups.items())
        assert euler_characteristic(c) == alternating


def test_reduced_homology_matches_the_per_degree_oracle():
    cache.clear_all_caches()
    inputs = homology_oracle_inputs()
    for c in inputs:
        for k in range(-1, c.dim + 2):
            assert reduced_homology(c, k) == homology_group_by_degree(c, k), (c.facets, k)
    assert len(inputs) >= 900
    assert {c.dim for c in inputs} == {-1, 0, 1, 2, 3}


def test_the_first_boundary_map_has_rank_vertices_less_components_and_no_torsion():
    """∂_1 is a graph's signed incidence matrix, which is totally unimodular,
    so homology takes its rank from the facets and never reduces it."""
    inputs = [c for c in homology_oracle_inputs() if c.dim >= 1]
    for c in inputs:
        factors, rank = smith_normal_form(boundary_matrix(c, 1).entries)
        assert rank == c.n_vertices - len(complexes.components(c.facets)), c.facets
        assert set(factors) <= {1}, c.facets
    assert max(len(complexes.components(c.facets)) for c in inputs) >= 3


def _count_reductions(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the degree of every boundary matrix that homology builds, and
    count its calls to ``smith_normal_form``."""
    built: list[int] = []
    reductions = [0]
    real_boundary, real_snf = homology.boundary_matrix, homology.smith_normal_form

    def boundary(c, k):
        built.append(k)
        return real_boundary(c, k)

    def snf(matrix):
        reductions[0] += 1
        return real_snf(matrix)

    monkeypatch.setattr(homology, "boundary_matrix", boundary)
    monkeypatch.setattr(homology, "smith_normal_form", snf)
    return built, reductions


COUNT_INPUTS = [
    [], [{0}], [{0}, {1}, {2}], [{0, 1}, {1, 2}, {0, 2}], [{0, 1}, {2, 3}],
    [{k % 5, (k + 1) % 5, (k + 2) % 5} for k in range(5)], RP2_FACETS, DUNCE_HAT_FACETS,
    [{0, 1, 2, 3}], [{0, 1, 2, 3}, {2, 3, 4}, {4, 5}, {6}],
]


def test_a_cold_complex_reduces_each_boundary_map_once(monkeypatch):
    """A cold degree-0 query of a complex that is not a cone reduces
    ∂_2..∂_dim once each.  It never reduces ∂_0, the row of ones from the
    vertices to the empty face, nor ∂_1, whose rank is read from the
    components; a cone reduces nothing."""
    built, reductions = _count_reductions(monkeypatch)
    cones = [[f | {7} for f in RP2_FACETS], [{0, 1, 2}, {0, 2, 3}, {0, 1, 3}]]
    inputs = COUNT_INPUTS + cones + [independence_complex(cycle_graph(9)).facets]
    shapes = set()
    for facets in inputs:
        c = from_facets(facets)
        is_cone = bool(reduce(and_, c.facets))
        cache.clear_all_caches()
        built.clear()
        reductions[0] = 0
        reduced_homology(c, 0)
        expected = [] if is_cone else list(range(2, c.dim + 1))
        assert built == expected, c.facets
        assert reductions[0] == len(expected), c.facets
        shapes.add((is_cone, c.dim))
    assert {(True, 2), (True, 3), (False, 2), (False, 3)} <= shapes
    assert {dim for _, dim in shapes} == {-1, 0, 1, 2, 3}


def test_the_other_degrees_of_the_same_facets_reduce_nothing(monkeypatch):
    built, reductions = _count_reductions(monkeypatch)
    cache.clear_all_caches()
    for facets in COUNT_INPUTS:
        reduced_homology(from_facets(facets), -1)
        before = (len(built), reductions[0])
        again = from_facets(facets)
        for k in range(-1, again.dim + 2):
            reduced_homology(again, k)
        assert (len(built), reductions[0]) == before, facets


def test_the_homology_memo_holds_one_entry_per_complex():
    cache.clear_all_caches()
    for count, facets in enumerate(COUNT_INPUTS, start=1):
        c = from_facets(facets)
        for k in range(-1, c.dim + 2):
            reduced_homology(c, k)
        assert len(homology._HOMOLOGY_CACHE) == count
        assert len(homology._HOMOLOGY_CACHE[c.facets]) == c.dim + 2


def test_homology_group_formatting():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 x C2 x C4"
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 2))
