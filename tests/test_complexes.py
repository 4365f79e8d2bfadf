import hashlib
import random
import warnings
from itertools import combinations, permutations, product

import pytest

from shellability import cache, complexes
from shellability.complexes import (
    CanonicalForm,
    CapacityError,
    FacetAbsorbedWarning,
    InvalidFaceError,
    PurityError,
    all_faces,
    components,
    face,
    face_vertices,
    format_complex,
    from_facets,
    full_simplex,
    parse_complex,
    two_disjoint_edges,
    union,
)
from shellability.graphs import cycle_graph, independence_complex
from shellability.partition import band_complex

from conftest import corpus
from oracles import tuple_refine_colors


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
    assert two_disjoint_edges() == two_k2
    assert two_k2.f_vector() == [1, 4, 2]
    assert not two_k2.connected()


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


def test_edge_classification(delta5, complex_1a, simplex3):
    kinds = delta5.edge_classification()
    nonboundary = {e for e, k in kinds.items() if k == "nonboundary"}
    assert nonboundary == {face({k, (k + 1) % 5}) for k in range(5)}
    assert len(kinds) == 10

    assert set(complex_1a.edge_classification().values()) == {"boundary"}

    tri = from_facets([{0, 1, 2}])
    assert set(tri.edge_classification().values()) == {"boundary"}

    with pytest.raises(Exception):
        simplex3.link({0}).edge_classification()  # 1-dimensional


def test_connectivity(two_k2, delta5):
    assert not two_k2.connected()
    assert delta5.connected() and delta5.strongly_connected()
    shared_vertex = from_facets(masks({0, 1, 2}, {0, 3, 4}))
    assert shared_vertex.connected()
    assert not shared_vertex.strongly_connected()
    assert from_facets([{0}]).connected()
    assert from_facets([]).connected()
    with pytest.raises(PurityError):
        from_facets(masks({0, 1, 2}, {3, 4})).strongly_connected()


def test_components_and_union():
    assert components([]) == [] and union([]) == 0
    assert components([0]) == [0]
    assert sorted(components(masks({0, 1}, {2, 3}, {1, 4}))) == masks({2, 3}, {0, 1, 4})
    # a later mask merges two classes found apart
    assert components(masks({0, 1}, {2, 3}, {1, 2})) == masks({0, 1, 2, 3})
    assert union(masks({0, 1}, {1, 5})) == face({0, 1, 5})


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
        assert c.connected() == (len(reached) == len(adjacent)), c


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
        relabeled = c.relabel(dict(zip(verts, shuffled)))
        assert relabeled.canonical_form() == c.canonical_form()
        assert c.relabel(c.canonical_map()).canonical_form() == c.canonical_form()


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
    return c.relabel(dict(zip(verts, image)))


def test_symmetric_families_canonical_form_is_invariant():
    rng = random.Random(18)
    for name, c in [*symmetric_families(), *refinement_hard_families()]:
        canon = c.canonical_form()
        for _ in range(5):
            assert shuffled(c, rng).canonical_form() == canon, name
        assert c.relabel(c.canonical_map()).facets == canon.facets, name


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
            out.append(c.relabel(dict(zip(verts, rng.sample(range(12), len(verts))))))
    return out


# Computed with the tuple-signature refinement (oracles.tuple_refine_colors)
# in the labeling: a cheaper kernel must give the same forms and maps.
SEARCH_TREE_ANSWERS_SHA256 = "070234766db88833201acdadcdf4fdeb0eda1c20553d8e718669054a2d8f88ef"


def test_canonical_forms_and_maps_through_the_search_tree_are_pinned(monkeypatch):
    reached = []
    search_tree = complexes._search_tree

    def counting(*args):
        reached.append(args)
        return search_tree(*args)

    monkeypatch.setattr(complexes, "_search_tree", counting)
    cache.clear_all_caches()
    answers = [(c.canonical_form(), sorted(c.canonical_map().items())) for c in search_tree_inputs()]
    assert len(reached) == 60
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == SEARCH_TREE_ANSWERS_SHA256


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


def test_clear_all_caches_empties_the_canonical_form_memo():
    from_facets([{0, 1}, {1, 2}, {2, 7}]).canonical_form()
    assert complexes._CANON_CACHE
    cache.clear_all_caches()
    assert not complexes._CANON_CACHE


def test_every_memo_table_is_registered_and_cleared():
    import importlib
    import pkgutil
    import re

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


def test_only_the_cache_module_trims_or_stores_into_a_module_table():
    """Every memo table is read and written through ``cache.memo``: no other
    module calls ``trim``, assigns into a table defined at module level or
    calls one of its mutating methods."""
    import ast
    from pathlib import Path

    found = []
    for path in sorted(Path(complexes.__file__).parent.glob("*.py")):
        if path.name == "cache.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tables = {
            target.id
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "trim":
                    found.append(f"{path.name}:{node.lineno} trim")
                if (name in ("setdefault", "update", "add", "append", "pop", "clear")
                        and isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                        and func.value.id in tables):
                    found.append(f"{path.name}:{node.lineno} {func.value.id}.{name}")
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name) and node.value.id in tables):
                found.append(f"{path.name}:{node.lineno} {node.value.id}[...]")
    assert found == []


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
