import random
from math import gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from shellability.complexes import from_facets, full_simplex
from shellability.graphs import cycle_graph, independence_complex
from shellability.homology import (
    HomologyGroup,
    boundary_matrix,
    euler_characteristic,
    homology_groups,
    reduced_homology,
    smith_normal_form,
)
from shellability.partition import band_complex

from conftest import corpus


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
        sm = sympy_snf(sympy.Matrix(m))
        sym_factors = sorted(abs(sm[i, i]) for i in range(min(rows, cols)) if sm[i, i] != 0)
        assert sym_factors == sorted(factors)


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
    above the canonical-labeling cap, so homology is computed unmemoized."""
    for n in range(4, 14):
        k, r = divmod(n, 3)
        degree, rank = {0: (k - 1, 2), 1: (k - 1, 1), 2: (k, 1)}[r]
        c = independence_complex(cycle_graph(n))
        expected = {d: HomologyGroup(rank if d == degree else 0) for d in range(-1, c.dim + 1)}
        assert homology_groups(c) == expected, n


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
        groups = homology_groups(c)
        alternating = sum((-1) ** k * g.betti for k, g in groups.items())
        assert euler_characteristic(c) == alternating


def test_homology_group_formatting():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 x C2 x C4"
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 2))
