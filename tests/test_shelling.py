import random
from itertools import permutations

import pytest

from shellability.complexes import face_vertices, from_facets, full_simplex
from shellability.graphs import cycle_graph, independence_complex
from shellability import shelling
from shellability.partition import band_complex
from shellability.shelling import is_shellable, verify_shelling

from conftest import corpus
from oracles import fast_paths_agree, shellable_by_search


# --- independent oracle: the raw definition over frozensets -----------------

def _closure(s: frozenset) -> set:
    out = set()
    items = list(s)
    for bits in range(1 << len(items)):
        out.add(frozenset(items[i] for i in range(len(items)) if bits >> i & 1))
    return out


def oracle_is_shelling(ordering) -> bool:
    """Each facet must meet the union of the earlier ones in a pure complex
    of dimension one below its own; pure set logic, no bitmasks."""
    union: set = set()
    for j, sigma in enumerate(ordering):
        if j:
            meet = union & _closure(sigma)
            maximal = [m for m in meet if not any(m < other for other in meet)]
            if any(len(m) != len(sigma) - 1 for m in maximal):
                return False
        union |= _closure(sigma)
    return True


def oracle_shellable(c) -> bool:
    facets = [frozenset(face_vertices(f)) for f in c.facets]
    return any(oracle_is_shelling(p) for p in permutations(facets))


def as_sets(c):
    return [frozenset(face_vertices(f)) for f in c.facets]


# --- verify_shelling ---------------------------------------------------------

def test_triangle_edges_any_order(hollow_triangle):
    for p in permutations(hollow_triangle.facets):
        ok, restrictions = verify_shelling(hollow_triangle, p)
        assert ok and len(restrictions) == 3


def test_two_disjoint_edges_never_shellable(two_k2):
    for p in permutations(two_k2.facets):
        ok, _ = verify_shelling(two_k2, p)
        assert not ok


def test_band5_no_ordering_works(delta5):
    assert all(not verify_shelling(delta5, p)[0] for p in permutations(delta5.facets))
    assert not is_shellable(delta5).shellable


def test_minimal_complex_is_shellable():
    empty = from_facets([])
    decision = is_shellable(empty)
    assert decision.shellable
    ok, restrictions = verify_shelling(empty, decision.certificate.ordering)
    assert ok and restrictions == (0,)


def test_verify_requires_permutation(two_k2):
    with pytest.raises(ValueError):
        verify_shelling(two_k2, two_k2.facets[:1])
    with pytest.raises(ValueError):
        verify_shelling(two_k2, two_k2.facets + two_k2.facets[:1])


def test_disagreeing_shelling_criteria_raise(hollow_triangle, monkeypatch):
    monkeypatch.setattr(shelling, "_definitional_check", lambda ordering: False)
    with pytest.raises(RuntimeError, match="shelling criteria disagree"):
        verify_shelling(hollow_triangle, hollow_triangle.facets)


def test_verify_agrees_with_oracle_on_random_orderings():
    rng = random.Random(31)
    checked = 0
    for c in corpus(seed=31, count=40):
        facets = list(c.facets)
        for _ in range(4):
            rng.shuffle(facets)
            ok, _ = verify_shelling(c, facets)
            assert ok == oracle_is_shelling([frozenset(face_vertices(f)) for f in facets])
            checked += 1
    assert checked >= 160


# --- is_shellable -------------------------------------------------------------

def test_simple_decisions(simplex3, two_k2, delta5):
    assert is_shellable(full_simplex(4)).shellable
    assert is_shellable(simplex3).shellable
    assert not is_shellable(two_k2).shellable
    assert not is_shellable(delta5).shellable
    assert is_shellable(from_facets([])).shellable
    assert is_shellable(from_facets([{0}, {1}, {2}])).shellable


def test_bands_not_shellable():
    for n in (5, 6, 7):
        assert not is_shellable(band_complex(2, n)).shellable


def test_ind_c5_shellable_both_paths():
    c5 = independence_complex(cycle_graph(5))
    assert c5.dim == 1
    assert is_shellable(c5).shellable
    assert shellable_by_search(c5).shellable


def test_matching_complex_minus_any_vertex_is_shellable(complex_1a):
    for v in complex_1a.vertex_ids():
        assert is_shellable(complex_1a.deletion({v})).shellable
    assert not is_shellable(complex_1a).shellable


def test_certificates_verify(two_k2):
    for c in corpus(seed=32, count=60):
        decision = is_shellable(c)
        if decision.shellable:
            cert = decision.certificate
            ok, restrictions = verify_shelling(c, cert.ordering)
            assert ok
            assert restrictions == cert.restriction_sets
            assert oracle_is_shelling([frozenset(face_vertices(f)) for f in cert.ordering])
        else:
            assert decision.certificate is None


def test_against_brute_force_orderings():
    disagreements = 0
    checked = 0
    for c in corpus(seed=33, count=60, n_max=5):
        if len(c.facets) > 6:
            continue
        checked += 1
        if is_shellable(c).shellable != oracle_shellable(c):
            disagreements += 1
    assert checked >= 40
    assert disagreements == 0
    # the multi-facet draw, where a nonshellable input is no rarity
    verdicts = []
    for c in corpus(seed=37, count=80, n_max=6, multi_facet=True):
        if len(c.facets) > 6:
            continue
        verdicts.append(is_shellable(c).shellable)
        assert verdicts[-1] == oracle_shellable(c)
    assert len(verdicts) >= 75 and len(verdicts) - sum(verdicts) >= 9


def test_fast_paths_agree_on_low_dimensions():
    count = 0
    for c in corpus(seed=34, count=50):
        if c.dim <= 2:
            assert fast_paths_agree(c)
            count += 1
    assert count >= 30


def test_fast_paths_agree_rejects_high_dimension():
    with pytest.raises(Exception):
        fast_paths_agree(full_simplex(5))


def test_skeleton_and_link_closure_for_shellable_corpus():
    for c in corpus(seed=35, count=40):
        if not is_shellable(c).shellable:
            continue
        for i in range(0, c.dim + 1):
            assert is_shellable(c.pure_skeleton(i)).shellable
        for tau in sorted(c.faces())[:12]:
            assert is_shellable(c.link(tau)).shellable


def test_nonincreasing_restriction_never_changes_verdict():
    """Searching all orderings agrees with the dimension-ordered search."""
    for c in corpus(seed=36, count=40, n_max=5) + corpus(seed=38, count=40, n_max=6, multi_facet=True):
        if len(c.facets) > 6:
            continue
        assert shellable_by_search(c).shellable == oracle_shellable(c)
