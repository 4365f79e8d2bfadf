import ast
import functools
import hashlib
import os
import random
import re
import subprocess
import sys
import warnings
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from shellability import cache, complexes
from shellability.catalog import CatalogEntry
from shellability.cohen_macaulay import CMReport, CMWitness
from shellability.complexes import (
    CANONICAL_VERTEX_CAP,
    CanonicalForm,
    CapacityError,
    FacetAbsorbedWarning,
    InvalidFaceError,
    PurityError,
    components,
    face,
    face_vertices,
    format_complex,
    from_facets,
    parse_complex,
    union,
)
from shellability.enumeration import CoincidenceReport, EdgeAdditionReport
from shellability.graphs import CycleCaseReport, CycleObstructionReport, Graph, cycle_graph, independence_complex
from shellability.homology import HomologyGroup
from shellability.obstruction import ObstructionReport
from shellability.partition import PartitionCertificate, PartitionDecision, band_complex
from shellability.shelling import ShellingCertificate, ShellingDecision, is_shellable

from conftest import corpus, full_simplex, golden_classes, homology_oracle_inputs, is_connected, relabel, skeleton_identity_inputs
from oracles import all_faces, link_by_definition, pure_skeleton_by_definition, tuple_refine_colors


def masks(*vertex_sets):
    return [face(vs) for vs in vertex_sets]


def test_from_facets_absorbs_subsets():
    c = from_facets(masks({0, 1}, {0}))
    assert c.facets == (face({0, 1}),)


def test_from_facets_empty_gives_the_minimal_complex():
    c = from_facets([])
    assert c.facets == (0,)
    assert c.dim == -1
    assert c.f_vector() == [1]


def test_from_facets_is_idempotent_on_corpus():
    for c in corpus(seed=11, count=60):
        assert from_facets(c.facets) == c


def test_two_disjoint_edges_shape(two_k2):
    assert two_k2.f_vector() == [1, 4, 2]
    assert not is_connected(two_k2)


def test_all_faces_counts(two_k2, delta5):
    assert len(all_faces(two_k2)) == 7
    assert len(all_faces(full_simplex(3))) == 8
    assert len(all_faces(delta5)) == 21
    # the band contains every possible edge on its five vertices
    assert len(delta5.faces_of_dim(1)) == 10


def test_restriction_examples(two_k2, delta5):
    assert two_k2.restriction({0, 1}).facets == (face({0, 1}),)
    assert delta5.restriction(delta5.vertices) == delta5
    r = delta5.restriction({0, 1, 2, 3})
    assert set(r.facets) == set(masks({0, 1, 2}, {1, 2, 3}, {0, 3}))


def test_restriction_ignores_foreign_vertices(delta5):
    assert delta5.restriction({0, 1, 2, 3, 9, 10}) == delta5.restriction({0, 1, 2, 3})


def test_deletion_is_complementary_restriction():
    for c in corpus(seed=12, count=40):
        verts = c.vertex_ids()
        for drop in range(len(verts) + 1):
            for removed in combinations(verts, min(drop, 2)):
                u = face(removed)
                assert c.deletion(u) == c.restriction(c.vertices & ~u)


def test_link_examples(simplex3, delta5):
    assert simplex3.link({0}).facets == (face({1, 2}),)
    link0 = delta5.link({0})
    # the link of a band vertex is the path 2-1-4-3
    assert set(link0.facets) == set(masks({1, 2}, {1, 4}, {3, 4}))
    assert delta5.link(0) == delta5


def test_link_requires_a_face(two_k2):
    with pytest.raises(InvalidFaceError):
        two_k2.link({0, 2})


def test_restriction_link_commute_on_corpus():
    rng = random.Random(13)
    checked = 0
    for c in corpus(seed=13, count=40):
        verts = c.vertex_ids()
        w = face(v for v in verts if rng.random() < 0.7)
        restricted = c.restriction(w)
        for tau in restricted.faces():
            assert restricted.link(tau) == c.link(tau).restriction(w)
            checked += 1
    assert checked > 100


def test_pure_skeleton_examples(two_k2, delta5):
    assert two_k2.pure_skeleton(1) == two_k2
    tri_and_point = from_facets(masks({0, 1, 2}, {3}))
    assert tri_and_point.pure_skeleton(1) == from_facets(masks({0, 1}, {1, 2}, {0, 2}))
    k5 = from_facets(masks(*[set(p) for p in combinations(range(5), 2)]))
    assert delta5.pure_skeleton(1) == k5
    assert delta5.pure_skeleton(5).facets == (0,)


def test_links_and_pure_skeletons_match_their_definitions():
    """The facets of a link or a pure skeleton, taken as they come, are the
    ones ``from_facets`` sorts and absorbs; {∅}, τ = ∅, τ a facet, i = -1,
    i above the dimension and nonpure inputs included."""
    inputs = homology_oracle_inputs() + corpus(seed=19, count=80, n_max=7)
    assert from_facets([]) in inputs
    facet_links = nonpure = 0
    for c in inputs:
        nonpure += not c.is_pure()
        for tau in c.faces():
            got, want = c.link(tau), link_by_definition(c, tau)
            assert (got.facets, got.vertices) == (want.facets, want.vertices), (c.facets, tau)
            facet_links += tau in c.facets
        outside = 1 << c.vertices.bit_length()
        with pytest.raises(InvalidFaceError):
            c.link(outside)
        with pytest.raises(InvalidFaceError):
            link_by_definition(c, outside)
        for i in range(-2, c.dim + 3):
            got, want = c.pure_skeleton(i), pure_skeleton_by_definition(c, i)
            assert (got.facets, got.vertices) == (want.facets, want.vertices), (c.facets, i)
    assert facet_links >= 7000 and nonpure >= 350


def test_pure_skeletons_are_pure_of_requested_dimension():
    for c in corpus(seed=17, count=40):
        for i in range(0, c.dim + 1):
            skel = c.pure_skeleton(i)
            assert skel.is_pure() and skel.dim == i


def test_f_vector_dim_purity(two_k2, delta5):
    assert two_k2.f_vector() == [1, 4, 2]
    assert delta5.is_pure() and delta5.dim == 2
    assert not from_facets(masks({0, 1, 2}, {3, 4})).is_pure()
    assert sum(delta5.f_vector()) == len(all_faces(delta5))


def test_connectivity(two_k2, delta5):
    assert not is_connected(two_k2)
    assert is_connected(delta5) and delta5.strongly_connected()
    shared_vertex = from_facets(masks({0, 1, 2}, {0, 3, 4}))
    assert is_connected(shared_vertex)
    assert not shared_vertex.strongly_connected()
    assert is_connected(from_facets([{0}]))
    assert is_connected(from_facets([]))
    with pytest.raises(PurityError):
        from_facets(masks({0, 1, 2}, {3, 4})).strongly_connected()


def test_the_facets_with_enough_vertices_give_each_pure_skeleton_and_its_strong_connectivity():
    """The pure i-skeleton is the pure i-skeleton of Δ_{≥i}, the subcomplex
    generated by the facets with at least i + 1 vertices, and it is strongly
    connected exactly when those facets form one class when two that share
    at least i vertices are linked; for every i from 0 to the dimension."""
    split = checked = 0
    for c in skeleton_identity_inputs():
        for i in range(0, c.dim + 1):
            upper = complexes._upper(c, i)
            assert upper.facets == tuple(f for f in c.facets if f.bit_count() > i), (c.facets, i)
            skeleton = c.pure_skeleton(i)
            assert upper.pure_skeleton(i) == skeleton, (c.facets, i)
            want = skeleton.strongly_connected()
            assert complexes._one_class(upper.facets, i) == want, (c.facets, i)
            split += not want
            checked += 1
    assert checked >= 9000 and split >= 900


def test_components_and_union():
    assert components([]) == [] and union([]) == 0
    assert components([0]) == [0]
    assert sorted(components(masks({0, 1}, {2, 3}, {1, 4}))) == masks({2, 3}, {0, 1, 4})
    # a later mask merges two classes found apart
    assert components(masks({0, 1}, {2, 3}, {1, 2})) == masks({0, 1, 2, 3})
    assert union(masks({0, 1}, {1, 5})) == face({0, 1, 5})


def test_repr_lists_the_facets_as_vertex_sets():
    """Every internal error message names its complex through ``repr``."""
    assert repr(from_facets([])) == "SimplicialComplex({∅})"
    assert repr(from_facets(masks({0, 1, 2}, {2, 3}))) == "SimplicialComplex({2,3}, {0,1,2})"


def test_connected_matches_a_breadth_first_search():
    for c in corpus(11, 150):
        adjacent = {v: {v} for v in c.vertex_ids()}
        for e in c.faces_of_dim(1):
            a, b = face_vertices(e)
            adjacent[a].add(b)
            adjacent[b].add(a)
        reached = set(list(adjacent)[:1])
        frontier = list(reached)
        while frontier:
            frontier = [w for v in frontier for w in adjacent[v] if w not in reached]
            reached.update(frontier)
        assert is_connected(c) == (len(reached) == len(adjacent)), c


def test_vertex_cap():
    with pytest.raises(CapacityError):
        face([64])


# --- canonical form against the permutation oracle -------------------------

def brute_isomorphic(a, b) -> bool:
    va, vb = a.vertex_ids(), b.vertex_ids()
    if len(va) != len(vb):
        return False
    fa = {frozenset(face_vertices(f)) for f in a.facets}
    fb = {frozenset(face_vertices(f)) for f in b.facets}
    for perm in permutations(vb):
        m = dict(zip(va, perm))
        if {frozenset(m[v] for v in f) for f in fa} == fb:
            return True
    return False


def test_canonical_form_matches_brute_force_oracle():
    for cs in (corpus(seed=14, count=45, n_max=6), corpus(seed=21, count=45, n_max=6, multi_facet=True)):
        pairs_checked = agreements = 0
        for i, a in enumerate(cs):
            for b in cs[i + 1:i + 6]:
                expected = brute_isomorphic(a, b)
                assert a.is_isomorphic(b) == expected
                pairs_checked += 1
                agreements += expected
        assert pairs_checked >= 150


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(15)
    for c in corpus(seed=15, count=40):
        verts = list(c.vertex_ids())
        shuffled = verts[:]
        rng.shuffle(shuffled)
        relabeled = relabel(c, dict(zip(verts, shuffled)))
        assert relabeled.canonical_form() == c.canonical_form()
        assert brute_isomorphic(from_facets(c.canonical_form().facets), c)


def test_isomorphism_examples(ind_c6, complex_1a, two_k2):
    assert ind_c6.is_isomorphic(complex_1a)
    assert brute_isomorphic(ind_c6, complex_1a)
    path3 = from_facets(masks({0, 1}, {1, 2}, {2, 3}))
    assert not two_k2.is_isomorphic(path3)


# --- symmetric families: the inputs that exercise the search tree ------------

def cross_polytope_boundary(d: int):
    """Boundary of the d-dimensional cross-polytope on 2d vertices."""
    return from_facets([
        sum(1 << (2 * i + side) for i, side in enumerate(sides))
        for sides in product((0, 1), repeat=d)
    ])


def skeleton(k: int, n: int):
    """The complete k-skeleton of the simplex on n vertices."""
    return from_facets([face(s) for s in combinations(range(n), k + 1)])


def circulant(n: int, offsets):
    return from_facets([face((i + o) % n for o in offsets) for i in range(n)])


def symmetric_families():
    for n in range(4, 10):
        yield f"Ind(C_{n})", independence_complex(cycle_graph(n))
    for n in range(5, 10):
        yield f"band(2,{n})", band_complex(2, n)
    for d in range(2, 5):
        yield f"cross({d})", cross_polytope_boundary(d)
    for k in (0, 1, 2):
        for n in range(k + 1, 10):
            yield f"skel({k},{n})", skeleton(k, n)


def cycles(*lengths):
    """Disjoint cycles: 2-regular, so refinement leaves one cell of several orbits."""
    facets, start = [], 0
    for k in lengths:
        facets += [face({start + i, start + (i + 1) % k}) for i in range(k)]
        start += k
    return from_facets(facets)


# Triangle systems on 8 vertices, every vertex in three triangles, found by a
# random search for inputs whose refinement leaves a single cell and whose
# leaves have tied labelings that are not least; they exercise the
# automorphisms read off those ties.
TIED_TRIANGLE_SYSTEMS = [
    (22, 42, 49, 67, 100, 137, 140, 208),
    (26, 41, 69, 98, 112, 134, 140, 145),
]


# Nine triangles on the 3 x 3 grid, the vertices of the rook's graph K3□K3
# (vertex 3i + j in row i, column j), each vertex in three: three L-shaped
# triangles (two grid edges each) and six with one grid edge.  Refinement
# leaves one cell, which the 12 automorphisms split into orbits of 3 and 6.
# Individualizing a vertex of the 6-orbit gives a leaf; one of the 3-orbit
# leaves a cell of 6 that splits only after a second individualization.
# When 6-orbit vertices were explored first, the children of a 3-orbit
# vertex must be pruned with the automorphisms that fix it: those found
# below the others cut off the least leaf under some labelings.
GRID_TRIANGLES = (11, 28, 82, 97, 133, 176, 290, 324, 392)


def refinement_hard_families():
    for lengths in [(3, 5), (4, 4), (3, 6), (4, 5), (3, 3, 3)]:
        yield f"cycles{lengths}", cycles(*lengths)
    for facets in TIED_TRIANGLE_SYSTEMS:
        yield f"triangles{facets}", from_facets(facets)
    yield "grid triangles", from_facets(GRID_TRIANGLES)


def shuffled(c, rng):
    verts = list(c.vertex_ids())
    image = verts[:]
    rng.shuffle(image)
    return relabel(c, dict(zip(verts, image)))


def test_symmetric_families_canonical_form_is_invariant():
    rng = random.Random(18)
    for name, c in [*symmetric_families(), *refinement_hard_families()]:
        canon = c.canonical_form()
        for _ in range(5):
            assert shuffled(c, rng).canonical_form() == canon, name
        assert brute_isomorphic(from_facets(canon.facets), c), name


def test_symmetric_families_match_brute_force_oracle():
    rng = random.Random(19)
    cube = from_facets([face({a, b}) for a in range(8) for b in range(a + 1, 8)
                        if (a ^ b).bit_count() == 1])
    wagner = from_facets([*cycles(8).facets, *(face({i, i + 4}) for i in range(4))])
    ind8 = independence_complex(cycle_graph(8))
    cross4 = cross_polytope_boundary(4)
    pairs = [
        (cycles(6), cycles(3, 3)),
        (cycles(8), cycles(4, 4)),
        (cube, wagner),
        (band_complex(2, 8), circulant(8, (0, 1, 3))),
        (band_complex(2, 7), independence_complex(cycle_graph(7))),
        (independence_complex(cycle_graph(6)), cross_polytope_boundary(3)),
        (skeleton(1, 4), cross_polytope_boundary(2)),
        (cycles(3, 5), cycles(8)),
        (cycles(3, 5), shuffled(cycles(3, 5), rng)),
        tuple(from_facets(facets) for facets in TIED_TRIANGLE_SYSTEMS),
        (ind8, shuffled(ind8, rng)),
        (from_facets(GRID_TRIANGLES), shuffled(from_facets(GRID_TRIANGLES), rng)),
        (cross4, shuffled(cross4, rng)),
        (band_complex(2, 6), shuffled(band_complex(2, 6), rng)),
        (skeleton(2, 6), shuffled(skeleton(2, 6), rng)),
    ]
    verdicts = []
    for a, b in pairs:
        expected = brute_isomorphic(a, b)
        assert a.is_isomorphic(b) == expected, (a, b)
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


# --- the labeling kernel against the tuple-signature oracle ------------------

def compact_facet_bits(c) -> list[tuple[int, ...]]:
    """The facets of c as tuples over its vertices renumbered 0..n-1."""
    index = {v: i for i, v in enumerate(c.vertex_ids())}
    return [tuple(index[v] for v in face_vertices(m)) for m in c.facets]


def mixed_complexes(seed: int, count: int, sizes=range(3, 10)):
    """Seeded complexes on exactly n vertices, n drawn from sizes, whose
    facets have one to four vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        c = from_facets(face(rng.sample(range(n), rng.randint(1, min(n - 1, 4))))
                        for _ in range(rng.randint(2, 3 * n)))
        if c.n_vertices == n:
            out.append(c)
    return out


def test_refinement_matches_the_tuple_signature_oracle():
    inputs = [*mixed_complexes(seed=31, count=300),
              *(c for _, c in symmetric_families()), *(c for _, c in refinement_hard_families())]
    starts = 0
    for c in inputs:
        n, bits = c.n_vertices, compact_facet_bits(c)
        colors = tuple_refine_colors(n, bits)
        assert complexes._refine_colors(n, bits) == colors, c
        # individualizing keeps the colours contiguous ranks unless v is alone in its cell
        for v in range(n):
            for start in ([0] * n, colors):
                if start.count(start[v]) > 1:
                    start = complexes._individualize(start, v)
                    expected = tuple_refine_colors(n, bits, start)
                    assert complexes._refine_colors(n, bits, start) == expected, (c, v)
                    starts += 1
    assert starts > 2000


def search_tree_inputs():
    """Seeded labelings, on ids with gaps, of complexes on 7 to 9 vertices;
    most leave more than 6! labelings after refinement."""
    rng = random.Random(32)
    shapes = [
        *(independence_complex(cycle_graph(n)) for n in (7, 8, 9)),
        cross_polytope_boundary(3),
        cross_polytope_boundary(4),
        *(band_complex(2, n) for n in (7, 8, 9)),
        *(circulant(n, (0, 1, 3)) for n in (7, 8, 9)),
        cycles(4, 4),
        cycles(3, 6),
        *map(from_facets, TIED_TRIANGLE_SYSTEMS),
        from_facets(GRID_TRIANGLES),
        *mixed_complexes(seed=33, count=12, sizes=range(7, 10)),
    ]
    out = []
    for c in shapes:
        out.append(c)
        for _ in range(3):
            verts = c.vertex_ids()
            out.append(relabel(c, dict(zip(verts, rng.sample(range(12), len(verts))))))
    return out


# The forms first computed with the tuple-signature refinement
# (oracles.tuple_refine_colors) in the labeling: a cheaper kernel must give
# the same forms.
SEARCH_TREE_FORMS_SHA256 = "80b5e3ff139a61770196a5268b69863012927292136a434252e21724221f3702"


def test_canonical_forms_through_the_search_tree_are_pinned(monkeypatch):
    reached = []
    search_tree = complexes._search_tree

    def counting(*args):
        reached.append(args)
        return search_tree(*args)

    monkeypatch.setattr(complexes, "_search_tree", counting)
    cache.clear_all_caches()
    forms = [c.canonical_form() for c in search_tree_inputs()]
    assert len(reached) == 60
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == SEARCH_TREE_FORMS_SHA256


def test_a_symmetric_cell_builds_only_the_identity_table():
    complexes._cell_relabelings.cache_clear()
    cache.clear_all_caches()
    skeleton(2, 6).canonical_form()  # one cell of six vertices, and every swap preserves it
    assert complexes._cell_relabelings.cache_info().currsize == 1
    assert len(complexes._cell_relabelings(6, 0, True)) == 1
    assert complexes._cell_relabelings.cache_info().currsize == 1


def test_cell_relabelings_reject_labels_past_sixteen_bits():
    assert len(complexes._cell_relabelings(2, 14, False)) == 2
    with pytest.raises(CapacityError, match="labels 0..15"):
        complexes._cell_relabelings(2, 15, False)
    with pytest.raises(CapacityError, match="labels 0..15"):
        complexes._cell_relabelings(17, 0, True)


# Canonical forms computed by exhaustive enumeration over the refined colour
# classes, before the search tree existed; on at most six vertices the tree is
# a single leaf and must reproduce them exactly.
PINNED_FORMS = [
    CanonicalForm(1, (1,)),
    CanonicalForm(1, (1,)),
    CanonicalForm(2, (3,)),
    CanonicalForm(6, (3, 37, 50, 56)),
    CanonicalForm(2, (3,)),
    CanonicalForm(4, (15,)),
    CanonicalForm(1, (1,)),
    CanonicalForm(5, (5, 10, 28)),
    CanonicalForm(2, (3,)),
    CanonicalForm(5, (7, 30)),
    CanonicalForm(2, (1, 2)),
    CanonicalForm(4, (15,)),
    CanonicalForm(1, (1,)),
    CanonicalForm(5, (29, 30)),
    CanonicalForm(1, (1,)),
    CanonicalForm(2, (3,)),
    CanonicalForm(2, (1, 2)),
    CanonicalForm(4, (15,)),
    CanonicalForm(3, (1, 6)),
    CanonicalForm(2, (3,)),
]


def test_canonical_forms_on_six_vertices_are_pinned(complex_1a, ind_c6, two_k2):
    assert complex_1a.canonical_form() == CanonicalForm(6, (3, 12, 48, 21, 42))
    assert ind_c6.canonical_form() == CanonicalForm(6, (3, 12, 48, 21, 42))
    assert band_complex(2, 5).canonical_form() == CanonicalForm(5, (7, 11, 21, 26, 28))
    assert two_k2.canonical_form() == CanonicalForm(4, (3, 12))
    assert [c.canonical_form() for c in corpus(seed=14, count=20, n_max=6)] == PINNED_FORMS


def test_a_canonical_form_is_its_own_canonical_form():
    """Labelling the facets of a canonical form gives the form back, which
    is why ``canonical_form`` may store each form under its own facets."""
    inputs = golden_classes() + homology_oracle_inputs() + corpus(seed=35, count=80, n_max=9, multi_facet=True)
    checked = 0
    for c in inputs:
        if c.n_vertices > CANONICAL_VERTEX_CAP:
            continue
        form = complexes._canonicalize(c.facets, c.vertices)
        assert complexes._canonicalize(form.facets, (1 << form.n_vertices) - 1) == form
        checked += 1
    assert checked >= 1000


def test_a_complex_built_from_a_canonical_form_is_not_labelled_again(monkeypatch):
    c = from_facets([{3, 5, 8}, {5, 8, 9}, {0, 3}])
    form = c.canonical_form()
    assert complexes._CANON_CACHE[form.facets] is form
    calls = []
    monkeypatch.setattr(complexes, "_canonicalize", lambda *args: calls.append(args))
    assert from_facets(form.facets).canonical_form() is form
    assert calls == []


def test_clear_all_caches_empties_the_canonical_form_memo():
    from_facets([{0, 1}, {1, 2}, {2, 7}]).canonical_form()
    assert complexes._CANON_CACHE
    cache.clear_all_caches()
    assert not complexes._CANON_CACHE


def test_every_memo_table_is_registered_and_cleared():
    import importlib
    import pkgutil

    import shellability
    from shellability.cohen_macaulay import is_sequentially_cm
    from shellability.enumeration import dim2_shellability_obstructions
    from shellability.partition import is_partitionable

    modules = [importlib.import_module(f"shellability.{m.name}")
               for m in pkgutil.iter_modules(shellability.__path__)]
    tables = {
        f"{mod.__name__}.{name}": value
        for mod in modules for name, value in vars(mod).items()
        if isinstance(value, dict) and re.fullmatch(r"_[A-Z0-9_]*(CACHE|MEMO|TABLES)", name)
    }
    assert {"shellability.enumeration._CORES_MEMO", "shellability.enumeration._DIM2_MEMO",
            "shellability.enumeration._PAIR_TABLES"} <= set(tables)
    registered = {id(t) for t in cache._REGISTRY}
    assert [name for name, t in tables.items() if id(t) not in registered] == []

    dim2_shellability_obstructions(5)
    band = from_facets([{k % 5, (k + 1) % 5, (k + 2) % 5} for k in range(5)])
    is_partitionable(band)
    is_sequentially_cm(band)
    cache.clear_all_caches()
    assert {name: len(t) for name, t in tables.items() if t} == {}


def test_memo_stores_once_and_treats_a_stored_none_as_a_hit():
    table: dict = {}
    calls = []

    def compute(x):
        calls.append(x)
        return None

    assert cache.memo(table, "k", compute, 1) is None
    assert cache.memo(table, "k", compute, 2) is None
    assert calls == [1] and table == {"k": None}


def test_memo_drops_the_oldest_half_of_a_full_table(monkeypatch):
    monkeypatch.setattr(cache, "CACHE_LIMIT", 4)
    table: dict = {}
    for k in range(5):
        cache.memo(table, k, str, k)
    assert table == {2: "2", 3: "3", 4: "4"}


@functools.cache
def _package_trees() -> dict[str, ast.Module]:
    """Each module of the package by file name, read and parsed once for the source scans."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(complexes.__file__).parent.glob("*.py"))}


def test_only_the_cache_module_trims_or_stores_into_a_module_table():
    """Every memo table is read and written through ``cache.memo``: no other
    module calls ``trim``, assigns into a table defined at module level or
    calls one of its mutating methods."""
    found = []
    for name, tree in _package_trees().items():
        if name == "cache.py":
            continue
        tables = {
            target.id
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == "trim":
                    found.append(f"{name}:{node.lineno} trim")
                if (called in ("setdefault", "update", "add", "append", "pop", "clear")
                        and isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                        and func.value.id in tables):
                    found.append(f"{name}:{node.lineno} {func.value.id}.{called}")
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name) and node.value.id in tables):
                found.append(f"{name}:{node.lineno} {node.value.id}[...]")
    assert found == []


def _calls_named(modules: tuple[str, ...], names: tuple[str, ...]) -> list[str]:
    """Each call in the modules to a function or method of one of the names."""
    found = []
    for module in modules:
        for node in ast.walk(_package_trees()[f"{module}.py"]):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in names:
                    found.append(f"{module}.py:{node.lineno} {called}")
    return found


def test_the_deciders_never_call_the_canonical_labeling():
    """The deciders and homology memoize on raw facets: no call in their
    modules names ``canonical_form`` or ``memoized``.  Only the hereditary
    memo and the enumeration work on isomorphism classes."""
    assert _calls_named(("shelling", "partition", "cohen_macaulay", "homology"), ("canonical_form", "memoized")) == []


def test_the_skeleton_scans_never_build_a_pure_skeleton():
    """The sequential Cohen-Macaulay scan and the shelling prescreen read
    each pure skeleton from the facets with enough vertices and their
    links: no call in their modules names ``pure_skeleton``."""
    assert _calls_named(("cohen_macaulay", "shelling"), ("pure_skeleton",)) == []


# Definitions kept although nothing in the package calls them, each with its reason.
KEPT_UNUSED = {
    "clear_all_caches": "the README documents it as the way to empty every memo table",
}


def _code_names(node: ast.AST) -> list[str]:
    """The names a node uses in code: a name, an attribute, or what an import binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def test_every_definition_in_the_package_is_named_elsewhere_or_exported():
    """The package keeps no code that only the tests call: every ``def`` and
    ``class`` in it is exported by ``__init__`` or used in the package's
    code outside its own body, as a name, an attribute or an import.  A
    mention in a docstring or a comment does not count.  Dunder methods and
    the names in ``KEPT_UNUSED`` are exempt.  Known limit: an attribute is
    not resolved to its class, so a method that shares its name with an
    attribute used elsewhere still passes."""
    trees = _package_trees()
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            for used in _code_names(node):
                uses.setdefault(used, []).append((name, node.lineno))
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if re.fullmatch(r"__\w+__", node.name) or node.name in exported or node.name in KEPT_UNUSED:
                continue
            if not any(other != name or not node.lineno <= line <= node.end_lineno
                       for other, line in uses.get(node.name, [])):
                found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []


def test_the_package_has_no_assert_statements():
    """``python -O`` strips ``assert`` statements, so no check of the package
    may be one: each raises an exception of its own."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_importing_the_package_loads_no_introspection_modules():
    """``import shellability`` loads neither ``dataclasses`` nor the modules
    it brings in, which cost more than the rest of the import.  The modules
    are compared against the same fresh interpreter's own start-up set, so
    whatever ``site`` loads does not count."""
    code = ("import sys; before = set(sys.modules); import shellability; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(Path(complexes.__file__).parents[1])}
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True).stdout.split()
    assert "shellability.complexes" in added
    assert sorted({"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"} & set(added)) == []


RESULT_TYPES = (
    ShellingCertificate, ShellingDecision, PartitionCertificate, PartitionDecision, CMWitness, CMReport,
    HomologyGroup, ObstructionReport, Graph, CycleCaseReport, CycleObstructionReport, EdgeAdditionReport,
    CoincidenceReport, CatalogEntry,
)


@pytest.mark.parametrize("result_type", RESULT_TYPES, ids=lambda t: t.__name__)
def test_result_types_are_immutable_tuples(result_type):
    """Each result type is a tuple of its fields: no field can be set and no
    attribute added, as when they were frozen dataclasses."""
    value = result_type._make(range(len(result_type._fields)))
    assert isinstance(value, tuple) and tuple(value) == tuple(range(len(result_type._fields)))
    for name in result_type._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)
    with pytest.raises(AttributeError):
        value.extra = -1
    assert repr(value).startswith(f"{result_type.__name__}({result_type._fields[0]}=0")


def test_canonical_cap():
    with pytest.raises(CapacityError):
        from_facets([face(range(10))]).canonical_form()


# --- facet-list text format -------------------------------------------------

def test_parse_numeric_and_round_trip(delta5, two_k2):
    for c in [delta5, two_k2, full_simplex(4), from_facets([])]:
        assert parse_complex(format_complex(c)) == c


def test_parse_tokens_first_appearance():
    c = parse_complex("a b c\nd e\n")
    assert c == from_facets(masks({0, 1, 2}, {3, 4}))


def test_parse_comments_blank_lines_and_absorption():
    text = "# header\n0 1 2\n\n0 1   # subset gets absorbed\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = parse_complex(text)
    assert c == from_facets([{0, 1, 2}])
    assert any(issubclass(w.category, FacetAbsorbedWarning) for w in caught)


def test_parse_bad_token():
    with pytest.raises(ValueError, match="line 2"):
        parse_complex("0 1\n0 !\n")


def test_parse_reads_a_non_ascii_digit_as_a_label():
    """Only ASCII digits are vertex numbers: ``²`` is a label, not int('²'),
    and ``٣`` is a fresh vertex, not the vertex of the token ``3``."""
    assert parse_complex("²\n") == from_facets([{0}])
    c = parse_complex("0 1 ٣\n2 3\n")
    assert c == from_facets(masks({0, 1, 2}, {3, 4}))
    assert not is_shellable(c).shellable


def test_parse_round_trip_on_corpus():
    for c in corpus(seed=16, count=40):
        assert parse_complex(format_complex(c)) == c


def test_band_complex_shapes():
    assert band_complex(2, 5).f_vector() == [1, 5, 10, 5]
    square = band_complex(1, 4)
    assert square.f_vector() == [1, 4, 4]
    b37 = band_complex(3, 7)
    assert b37.dim == 3 and len(b37.facets) == 7
    with pytest.raises(ValueError):
        band_complex(2, 4)
    with pytest.raises(ValueError):
        band_complex(0, 5)
