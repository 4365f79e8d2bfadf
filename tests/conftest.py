import functools
import json
import random
from pathlib import Path

import pytest

from shellability.catalog import CatalogEntry
from shellability.complexes import SimplicialComplex, components, face, face_vertices, from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.partition import band_complex

# The 6-vertex real projective plane, whose first homology is C2.
RP2_FACETS = [{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 5, 1},
              {1, 2, 4}, {2, 3, 5}, {3, 4, 1}, {4, 5, 2}, {5, 1, 3}]

# An 8-vertex dunce hat: acyclic and Cohen-Macaulay, but nonshellable.  The
# last triangle of a shelling of an acyclic 2-complex has an edge in no other
# triangle, and here every edge lies in two triangles or more.
DUNCE_HAT_FACETS = [
    {0, 1, 3}, {0, 1, 6}, {0, 1, 7}, {0, 2, 3}, {0, 2, 4}, {0, 2, 5}, {0, 4, 5}, {0, 6, 7}, {1, 2, 4},
    {1, 2, 6}, {1, 2, 7}, {1, 3, 4}, {2, 3, 7}, {2, 5, 6}, {3, 4, 7}, {4, 5, 7}, {5, 6, 7},
]


@pytest.fixture
def simplex3() -> SimplicialComplex:
    return from_facets([{0, 1, 2}])


@pytest.fixture
def two_k2() -> SimplicialComplex:
    return from_facets([{0, 1}, {2, 3}])


@pytest.fixture
def hollow_triangle() -> SimplicialComplex:
    return from_facets([{0, 1}, {1, 2}, {0, 2}])


@pytest.fixture
def delta5() -> SimplicialComplex:
    return band_complex(2, 5)


@pytest.fixture
def complex_1a() -> SimplicialComplex:
    """Two disjoint triangles joined by a perfect matching."""
    return from_facets([{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5}])


@pytest.fixture
def complex_2() -> SimplicialComplex:
    """Two triangles sharing a vertex plus one cross edge."""
    return from_facets([{0, 1, 2}, {0, 3, 4}, {1, 3}])


@pytest.fixture
def ind_c6() -> SimplicialComplex:
    return independence_complex(cycle_graph(6))


def full_simplex(n: int) -> SimplicialComplex:
    return from_facets([(1 << n) - 1])


def relabel(c: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    """The complex with each vertex v renamed mapping[v]."""
    return from_facets([{mapping[v] for v in face_vertices(f)} for f in c.facets])


def is_connected(c: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton ({∅} and single vertices count as connected).

    Two facets share a vertex exactly when they are joined in the
    1-skeleton, so this counts the facet classes linked by shared vertices.
    """
    return len(components(c.facets)) == 1


def entry_complex(e: CatalogEntry) -> SimplicialComplex:
    """The complex that a catalog entry lists."""
    return from_facets([set(f) for f in e.facets])


def cone(c: SimplicialComplex) -> SimplicialComplex:
    """The cone over c whose apex is a new vertex above all of c's."""
    apex = 1 << c.vertices.bit_length()
    return from_facets([f | apex for f in c.facets])


def suspension(c: SimplicialComplex) -> SimplicialComplex:
    """The union of two cones over c on new vertices: H_k(c) moves to degree k + 1."""
    north = 1 << c.vertices.bit_length()
    return from_facets([f | pole for f in c.facets for pole in (north, north << 1)])


def golden_classes() -> list[SimplicialComplex]:
    """The 35 classes of the golden six-vertex atlas, in catalog order."""
    golden = json.loads((Path(__file__).parent / "golden" / "atlas6_catalog.json").read_text())
    return [from_facets([set(f) for f in entry["facets"]]) for entry in golden["entries"]]


def random_complex(rng, n_max: int = 6, max_facets: int = 7, dim_cap: int = 3) -> SimplicialComplex:
    """Small random complex for corpus tests (deterministic under a seeded rng)."""
    n = rng.randint(1, n_max)
    k = rng.randint(1, max_facets)
    cands = []
    for _ in range(k):
        size = rng.randint(1, min(n, dim_cap + 1))
        cands.append(face(rng.sample(range(n), size)))
    return from_facets(cands)


def corpus(
    seed: int, count: int, n_max: int = 6, dim_cap: int = 3, max_facets: int = 7, multi_facet: bool = False
) -> list[SimplicialComplex]:
    """Deterministic random complex corpus shared across property suites.

    The plain draw (``random_complex``) is mostly single simplices: a face
    drawn on all n <= dim_cap + 1 vertices absorbs every other one.  With
    ``multi_facet`` every complex has at least two facets: on n >= 3
    vertices, its faces miss at least one vertex and differ in size by at
    most one, and a draw left with one facet is drawn again.
    """
    rng = random.Random(seed)
    if not multi_facet:
        return [
            random_complex(rng, n_max=n_max, max_facets=max_facets, dim_cap=dim_cap)
            for _ in range(count)
        ]
    out = []
    while len(out) < count:
        n = rng.randint(3, n_max)
        top = rng.randint(2, min(n - 1, dim_cap + 1))
        k = rng.randint(2, max_facets)
        c = from_facets([rng.sample(range(n), rng.randint(top - 1, top)) for _ in range(k)])
        if len(c.facets) >= 2:
            out.append(c)
    return out


def homology_oracle_inputs() -> list[SimplicialComplex]:
    """The complexes that homology and the Cohen-Macaulay scan are compared
    with their oracles on, once per facet list.

    The fixtures' complexes, {∅}, 0-dimensional complexes, the Δ5 band, RP2,
    the dunce hat, Ind(C_n) and its pure skeletons for n = 4..9, the golden
    six-vertex classes, cones over RP2, the dunce hat, Ind(C_6) and the
    golden classes, the suspension of RP2, a few graphs and 2-complexes
    named below, and 110 seeded draws; then, for each of them and each of
    its pure skeletons, the complex itself and the link of every face.
    """
    bases = [from_facets(facets) for facets in (
        [], [{0}], [{0}, {1}, {2}], [{0, 1, 2}], [{0, 1, 2, 3}], [{0, 1}, {2, 3}],
        [{0, 1}, {1, 2}, {0, 2}], [{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5}],
        [{0, 1, 2}, {0, 3, 4}, {1, 3}], RP2_FACETS, DUNCE_HAT_FACETS,
    )]
    bases.append(band_complex(2, 5))
    for n in range(4, 10):
        ind = independence_complex(cycle_graph(n))
        bases += [ind] + [ind.pure_skeleton(i) for i in range(ind.dim + 1)]
    golden = golden_classes()
    bases += golden
    # Acyclic cones over bases that are not; RP2's C2 in degree 2; graphs with
    # isolated vertices and three or more components; facets that meet
    # pairwise with no vertex common to all of them.
    rp2, dunce_hat = from_facets(RP2_FACETS), from_facets(DUNCE_HAT_FACETS)
    bases += [cone(c) for c in [rp2, dunce_hat, independence_complex(cycle_graph(6))] + golden]
    bases.append(suspension(rp2))
    bases += [from_facets(facets) for facets in (
        [{0}, {1, 2}, {3, 4}, {4, 5}, {6}], [{0, 1}, {1, 2}, {3}, {4, 5}, {4, 6}, {5, 6}, {7}, {8}],
        [{0, 1, 2}, {0, 3, 4}, {1, 3, 5}], [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}],
    )]
    bases += corpus(seed=81, count=30) + corpus(seed=82, count=80, n_max=7, multi_facet=True)
    seen: dict[tuple[int, ...], SimplicialComplex] = {}
    for c in bases:
        for s in [c] + [c.pure_skeleton(i) for i in range(c.dim + 1)]:
            for d in [s] + [s.link(tau) for tau in s.faces()]:
                seen.setdefault(d.facets, d)
    return list(seen.values())


def mixed_size_draws(seed: int, count: int) -> list[SimplicialComplex]:
    """Seeded complexes on 5..9 vertices with two to seven faces drawn of
    sizes 2..5, so that the subcomplex generated by the facets with at least
    i + 1 vertices changes with i; a draw left with one facet is drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 9)
        c = from_facets([rng.sample(range(n), rng.randint(2, 5)) for _ in range(rng.randint(2, 7))])
        if len(c.facets) >= 2:
            out.append(c)
    return out


@functools.cache
def skeleton_identity_inputs() -> tuple[SimplicialComplex, ...]:
    """The inputs on which the scans that read each pure skeleton from the
    facets with enough vertices are compared with the scans of the built
    skeletons: 1,200 mixed-size draws, the homology oracle's inputs, and the
    cones and suspensions of the golden classes."""
    golden = golden_classes()
    inputs = mixed_size_draws(seed=33, count=1200) + homology_oracle_inputs()
    return tuple(inputs + [cone(c) for c in golden] + [suspension(c) for c in golden])
