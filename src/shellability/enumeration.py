"""Exhaustive, isomorph-free searches over small complexes.

Two layers live here, behind one entry point, enumerate_obstructions.  Both
search level by level over the vertex count, attaching a new vertex of
minimum degree to each hereditary class on fewer vertices, and both decide
whether a candidate is hereditary by one copy test.

The copy test.  A minimal failing restriction is an obstruction on fewer
vertices, so a candidate is hereditary exactly when none of its restrictions
is a labelled copy of an obstruction found below its level.  Restrictions
that leave out the new vertex lie in the hereditary base, and a copy lies in
the restriction to its own vertex set, so only the vertex sets W of a lower
obstruction's size that hold the new vertex are tested.  A restriction and a
copy are compared as codes, bit masks over a numbering of the faces of the
tracked sizes (triangles in dimension two; vertices and edges in dimensions
0-1, where a 0-facet is a vertex too).  Faces are numbered by top vertex
first, so a candidate's code is its base's code with the new vertex's star
shifted above it.  The codes of the sets W and of the copies are memoized.

The generic layer (generic_obstructions) covers dimensions 0 and 1 with no
structural assumption about the obstructions.  The survivors of the copy
test at each level are its hereditary classes and its obstructions; the top
level labels only the candidates that fail P.  The test suite keeps an
edge-by-edge generator of every graph class as its reference.

The dimension-two obstruction search proper runs on the triangle cores of
candidate complexes.  For a two-dimensional obstruction, the edge facets only
influence connectivity of the 1-skeleton; its triangle set T must satisfy

    gen(T) is nonshellable, and the triangles inside any proper vertex
    subset generate a shellable complex,

because restrictions of an obstruction are shellable and a two-dimensional
complex is shellable exactly when its pure 2-skeleton is shellable and its
facets with an edge form one class: the rule that the ``shelling`` module
draws from the rearrangement lemma for every complex with a facet of at
most two vertices.  Vertices outside the triangle support are
impossible for the same reason (deleting one leaves the triangle set intact
and shellable, forcing the whole complex shellable).  Triangle sets with the
property above ("cores") are found by a level-wise search over the support
size: removing the full star of any vertex from a core leaves a triangle set
all of whose triangle restrictions are shellable, so cores on s vertices are
rebuilt from such sets on fewer vertices by attaching a new vertex star.

Every level attaches a vertex of minimum triangle degree only.  That is
complete at every level: deleting the star of any vertex of a hereditarily
shellable set or of a core leaves the restriction to the other vertices,
which is hereditarily shellable, so every such set arises from a smaller
hereditarily shellable set by attaching the star of one of its
minimum-degree vertices last.  A minimal nonshellable restriction of a triangle
set has full support, so it is a core, and the copy test reads the cores found
below the level (7 on five vertices and 2 on six below the top level).  Whether
an attached star gives the new vertex minimum degree depends only on the base's
vertex degrees and the star's deficit vector, so each level groups the stars by
deficit vector once and reads the admissible ones per degree vector.  A cheap
cone-extension certificate proves many candidates shellable, as every base is:
below the top level a class it certifies is hereditary without a shelling
search, and the top level, which only needs the cores, skips certified
candidates outright.  The top level is the requested bound: its hereditary
classes could only be sources of a level that is not scanned, so it emits
none.  The levels are memoized per (level, top), so a larger bound asked for
later scans that level again as a source level.  Every admissible star not
already covered by an orbit meets the two cheap tests, the core-copy test and,
at the top level, the certificate; of the stars that pass them, only the first
of each orbit of the base's automorphism group is attached, the orbit half of
McKay's canonical augmentation.  An automorphism of the base fixes its degrees,
its uncovered vertices, its face pairs and the set of labelled core copies, so
the stars of one orbit pass or fail the tests together and give isomorphic
candidates: skipping the rest of the orbit loses no class, and no orbit is
computed for the many stars the tests reject.

Each core is then augmented with edge facets on its non-face pairs, one edge
set per orbit of the core's automorphisms: an isomorphism between two
augmentations of one core maps triangles to triangles, so it is an
automorphism of the core, and two cores never give isomorphic complexes.

The vertex ceiling of seven is Wachs' classical bound for two-dimensional
minimally nonshellable complexes; the search relies on it only as a stop
level and reports the top stratum completing without truncation.
"""

from __future__ import annotations

from itertools import combinations, groupby, permutations, product
from operator import le
from typing import Iterable, NamedTuple, Optional

from . import cache
from .complexes import (
    CanonicalForm,
    CapacityError,
    SimplicialComplex,
    components,
    face_vertices,
    from_facets,
    subsets_of,
    union,
)
from .obstruction import obstruction_report
from .properties import PropertyKind, satisfies
from .shelling import is_shellable

MAX_OBSTRUCTION_VERTICES = 7

# The vertex bound of each dimension's obstruction search when none is given.
DEFAULT_MAX_VERTICES = {0: 7, 1: 6, 2: 7}

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _check_bound(max_vertices: int) -> None:
    """The one vertex-bound check of the searches and the atlas."""
    if isinstance(max_vertices, bool) or not isinstance(max_vertices, int):
        raise TypeError(f"max_vertices must be an int, got {max_vertices!r}")
    if not 1 <= max_vertices <= MAX_OBSTRUCTION_VERTICES:
        raise CapacityError(f"max_vertices must be 1..{MAX_OBSTRUCTION_VERTICES}")


def _sort_key(c: SimplicialComplex) -> tuple:
    canon = c.canonical_form()
    return (canon.n_vertices, len(c.facets), canon.facets)


def _non_face_pairs(c: SimplicialComplex) -> list[int]:
    """The vertex pairs of c that are not faces of c."""
    faces = c.faces()
    out = []
    for a, b in combinations(c.vertex_ids(), 2):
        m = (1 << a) | (1 << b)
        if m not in faces:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# the hereditary copy test of both searches
# ---------------------------------------------------------------------------

def _face_index(s: int, sizes: tuple[int, ...]) -> dict[int, int]:
    """The faces of the given sizes on vertices 0..s-1, numbered by top
    vertex, then by size, then by the vertices below it, so that the faces
    at the new vertex s-1 come last."""
    faces = [sum(1 << v for v in below) | 1 << top
             for top in range(s) for k in sizes for below in combinations(range(top), k - 1)]
    return {f: i for i, f in enumerate(faces)}


def _code(facets: Iterable[int], index: dict[int, int]) -> int:
    """The faces numbered in ``index`` that lie in one of the facets, as a bit mask."""
    faces = {f for g in facets for f in subsets_of(g)}
    return sum(1 << i for f, i in index.items() if f in faces)


# The copy test's memos: the codes of the vertex sets per (level, face sizes),
# and of the labelled copies per (level, lower obstructions, face sizes).
_HSTAR_RAW: dict[tuple, dict[int, int]] = cache.new_cache()
_HSTAR_CANON: dict[tuple, frozenset[int]] = cache.new_cache()


def _restrictions(s: int, sizes: tuple[int, ...]) -> dict[int, int]:
    """The code of every proper nonempty vertex set W of 0..s-1, that is, of
    the faces inside W, keyed by W, smaller sets first."""
    return cache.memo(_HSTAR_RAW, (s, sizes), _restriction_masks, s, sizes)


def _restriction_masks(s: int, sizes: tuple[int, ...]) -> dict[int, int]:
    index = _face_index(s, sizes)
    sets = (sum(1 << v for v in vertices) for k in range(1, s) for vertices in combinations(range(s), k))
    return {w: _code((w,), index) for w in sets}


def _core_copies(s: int, lower: list[tuple[int, ...]], sizes: tuple[int, ...]) -> frozenset[int]:
    """The codes of every relabeling into vertices 0..s-1 of the
    obstructions, each given by its facets on vertices 0..k-1."""
    return cache.memo(_HSTAR_CANON, (s, tuple(lower), sizes), _copy_masks, s, lower, sizes)


def _copy_masks(s: int, lower: list[tuple[int, ...]], sizes: tuple[int, ...]) -> frozenset[int]:
    index = _face_index(s, sizes)
    powers = [1 << v for v in range(s)]
    copies = set()
    for facets in lower:
        k = union(facets).bit_length()
        own = _face_index(k, sizes)
        code = _code(facets, own)
        # every face as three vertex positions, a smaller one padded with
        # position k, whose bit is 0 in every image
        corners = [(face_vertices(f) + (k, k))[:3] for f, i in own.items() if code >> i & 1]
        for image in permutations(powers, k):
            bits = image + (0,)
            copies.add(sum(1 << index[bits[a] | bits[b] | bits[c]] for a, b, c in corners))
    return frozenset(copies)


def _copy_test_tables(s: int, lower: list[tuple[int, ...]], sizes: tuple[int, ...]) -> tuple[list, list, frozenset]:
    """The copy test of level s: the codes of the proper vertex sets of a
    lower obstruction's size, the codes of those among them that hold the
    new vertex s-1, and the codes of the labelled copies."""
    k = {union(facets).bit_length() for facets in lower}
    tested = [(w, m) for w, m in _restrictions(s, sizes).items() if w.bit_count() in k]
    return [m for _, m in tested], [m for w, m in tested if w >> (s - 1) & 1], _core_copies(s, lower, sizes)


def _has_core_copy(mask: int, restrictions: Iterable[int], copies: frozenset[int]) -> bool:
    """Whether the code's restriction to one of the vertex sets, given by
    their codes, is a labelled copy of a lower obstruction."""
    return any(mask & w in copies for w in restrictions)


# ---------------------------------------------------------------------------
# triangle cores for the dimension-2 obstruction search
# ---------------------------------------------------------------------------

class _PairTables:
    """Shared per-level tables over the subsets of vertex pairs below the new
    vertex, and the level's numbering of triangles."""

    def __init__(self, s: int):
        self.ends = list(combinations(range(s - 1), 2))
        self.pairs = [(1 << a) | (1 << b) for a, b in self.ends]
        n = len(self.pairs)
        self.n_pairs = n
        # the triangles at the new vertex come last, in the order of the
        # pairs below it, so that the star of a link d is d << star_shift
        self.index = _face_index(s, (3,))
        self.star_shift = len(self.index) - n
        self.at_vertex = [
            sum(1 << i for i, p in enumerate(self.pairs) if p & (1 << u))
            for u in range(s - 1)
        ]
        # vertex cover of each pair subset, built incrementally
        cover = [0] * (1 << n)
        for d in range(1, 1 << n):
            low = d & -d
            cover[d] = cover[d ^ low] | self.pairs[low.bit_length() - 1]
        self.cover = cover
        # connectivity of the pair graph (pairs as edges, shared vertices join)
        self.connected = bytearray(
            len(components(p for i, p in enumerate(self.pairs) if d >> i & 1)) == 1
            for d in range(1 << n)
        )


_PAIR_TABLES: dict[int, _PairTables] = cache.new_cache()


def _pair_tables(s: int) -> _PairTables:
    return cache.memo(_PAIR_TABLES, s, _PairTables, s)


def _face_pair_mask(xprime: tuple[int, ...], tables: _PairTables) -> int:
    fm = 0
    for i, p in enumerate(tables.pairs):
        if any(p & ~t == 0 for t in xprime):
            fm |= 1 << i
    return fm


def _cone_extension_shellable(d: int, face_mask: int, tables: _PairTables) -> bool:
    """Sound shellability test for a shellable base plus one new vertex star.

    Certifies a shelling that runs through the base first and then attaches
    the new vertex's triangles: a triangle over a face pair is addable first
    or when it shares an endpoint with an earlier pair, one over a non-face
    pair once both endpoints have been touched.  A non-face pair touches no
    new vertex, so every triangle is placed exactly when the face pairs of
    ``d`` form a connected graph whose vertices cover the non-face pairs.  A
    False only means "not settled this way".

    The core scan applies it at every level, where each base is a source and
    so shellable: it classifies a certified class as shellable below the top
    level and skips certified candidates at the top level.
    """
    along = d & face_mask
    return bool(tables.connected[along]) and tables.cover[d ^ along] & ~tables.cover[along] == 0


def _deficit_groups(tables: _PairTables) -> dict[tuple[int, ...], list[int]]:
    """Every nonempty link d of the new vertex, grouped by its deficit vector.

    The deficit at old vertex u is |d| - |d & at_vertex[u]|: the number of
    base triangles u needs for the new vertex, of degree |d|, to have
    minimum degree.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for d in range(1, 1 << tables.n_pairs):
        k = d.bit_count()
        deficit = tuple(k - (d & m).bit_count() for m in tables.at_vertex)
        groups.setdefault(deficit, []).append(d)
    return groups


def _admissible_links(
    groups: dict[tuple[int, ...], list[int]], deg: tuple[int, ...], extras: int, tables: _PairTables
) -> list[int]:
    """The links d over a base of vertex degrees ``deg`` whose star covers the
    ``extras`` and gives the new vertex minimum degree."""
    cover = tables.cover
    return [
        d
        for deficit, ds in groups.items()
        if all(map(le, deficit, deg))
        for d in ds
        if cover[d] & extras == extras
    ]


def _automorphisms(xprime: tuple[int, ...], deg: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The permutations of the old vertices 0..len(deg)-1 that map the
    triangle set onto itself, each as the tuple of vertex images.

    An automorphism keeps every vertex degree, so only the permutations
    inside the equal-degree cells of ``deg`` are tried.
    """
    cells = [[u for u, k in enumerate(deg) if k == level] for level in sorted(set(deg))]
    triangles = set(xprime)
    corners = [face_vertices(t) for t in xprime]
    out = []
    for images in product(*(permutations(cell) for cell in cells)):
        perm = [0] * len(deg)
        for cell, image in zip(cells, images):
            for u, w in zip(cell, image):
                perm[u] = w
        if all((1 << perm[a]) | (1 << perm[b]) | (1 << perm[c]) in triangles for a, b, c in corners):
            out.append(tuple(perm))
    return out


def _scan_level(
    sources: list[tuple[int, ...]],
    s: int,
    lower: list[tuple[int, ...]],
    terminal: bool,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """One support level: (hereditary classes, cores) on exactly s vertices, sorted.

    The sources are the canonical reps of every hereditarily shellable
    triangle set on fewer than s vertices, each on vertices 0..s'-1; the new
    vertex is s-1, and the vertices s'..s-2 ("extras") must be covered by its
    star.  The new vertex is restricted to one of minimum degree, which is
    complete: every hereditarily shellable set and every core has such a
    vertex, and deleting its star leaves a relabeling of some source.  The
    links that pass both tests depend only on the source's degree vector and
    extras, so they are read once per such key from a table of the links
    grouped by deficit vector, with the sources scanned in key order.  Every
    link of a source that no earlier orbit covers meets the cheap tests (the
    certificate at the terminal level, the core-copy test below); of the
    links that pass, only the first of each orbit of the source's
    automorphisms (permutations of the old vertices that map its triangles
    onto themselves) is attached, and orbits are computed for those links
    only.  That is complete: an automorphism fixes the degree vector, the
    extras, the face pairs and the set of labelled core copies, so the links
    of an orbit are all admissible, all certified or none, all copies of a
    core or none, and give isomorphic candidates.  The first link of an
    orbit that passes is then the orbit's first link, the one a scan without
    orbits labels first, so each class is found, and certified or not, from
    the same candidate; a covered link is in the orbit of an earlier passing
    link, so it would pass too and is skipped before the tests.  An image of
    a passing link that is not admissible means a wrong automorphism and
    raises.  ``lower`` holds every core below s, which the copy test of the
    module docstring reads on triangle codes (``_has_core_copy``); with a core
    missing, classes can be lost.  Every source is shellable, so a
    cone-extension certificate proves a candidate shellable at any level: at
    the terminal level, the top level of the requested bound, where only the
    cores are wanted, certified candidates are skipped and no hereditary
    classes are emitted; below it, a new class whose first candidate is
    certified is hereditary without a shelling search.  Candidates are tested
    against ``lower`` alone, never against the sources, so a slice of the
    sources gives the classes that its candidates reach.
    """
    tables = _pair_tables(s)
    pairs = tables.pairs
    n_pairs = tables.n_pairs
    shift = tables.star_shift
    restrictions, around, copies = _copy_test_tables(s, lower, (3,))
    old_vertices = (1 << (s - 1)) - 1
    v_bit = 1 << (s - 1)
    groups = _deficit_groups(tables)

    seen: set[CanonicalForm] = set()
    hereditary: list[tuple[int, ...]] = []
    cores: list[tuple[int, ...]] = []
    keyed = sorted(
        (tuple(sum(t >> u & 1 for t in xprime) for u in range(s - 1)), old_vertices & ~union(xprime), xprime)
        for xprime in sources
    )
    for (deg, extras), group in groupby(keyed, key=lambda item: item[:2]):
        links = _admissible_links(groups, deg, extras, tables)
        admissible = set(links)
        for _, _, xprime in group:
            base = _code(xprime, tables.index)
            face_mask = _face_pair_mask(xprime, tables)
            moves = None  # each automorphism as its permutation of the pair indices
            scanned: set[int] = set()
            for d in links:
                # at the top level scanned stays empty for nearly every source
                if scanned and d in scanned:
                    continue
                certified = _cone_extension_shellable(d, face_mask, tables)
                if terminal and certified or _has_core_copy(base | d << shift, around, copies):
                    continue
                if moves is None:
                    moves = [[pairs.index((1 << g[a]) | (1 << g[b])) for a, b in tables.ends]
                             for g in _automorphisms(xprime, deg)]
                ones = [i for i in range(n_pairs) if d >> i & 1]
                orbit = {sum(1 << m[i] for i in ones) for m in moves}
                if not orbit <= admissible:
                    raise RuntimeError("an automorphism of a source maps an admissible link to one that is not")
                scanned |= orbit
                star = tuple(pairs[i] | v_bit for i in ones)
                key = from_facets(xprime + star).canonical_form()
                if key in seen:
                    continue
                seen.add(key)
                rep = key.facets
                if not certified and not is_shellable(from_facets(rep)).shellable:
                    cores.append(rep)
                elif not terminal:
                    # shellable + the per-vertex filter already implies hereditary
                    if _has_core_copy(_code(rep, tables.index), restrictions, copies):
                        raise RuntimeError("a star removal of a new class is not hereditarily shellable")
                    hereditary.append(rep)
    return sorted(hereditary), sorted(cores)


_CORES_MEMO: dict[tuple[int, bool], tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = cache.new_cache()


def triangle_cores(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> dict[int, list[tuple[int, ...]]]:
    """Nonshellable triangle sets all of whose proper triangle restrictions shell.

    Returned per support size, each core as its canonical facet tuple.  These
    are exactly the possible pure 2-skeletons of two-dimensional obstructions
    to shellability.  Levels are scanned by support size, each attaching a
    minimum-degree vertex to the hereditarily shellable sets found below it,
    with the admissible stars read from a per-level deficit table.  A candidate
    is kept when it passes the copy test of the module docstring against the
    cores found at lower levels.  A cone-extension certificate settles
    shellability at every level: below the top level it classifies the classes
    it certifies, leaving the shelling search only the cores below the top
    level, and the top level, ``max_vertices``, which only needs the cores,
    skips certified candidates and emits no hereditary classes.  Of the stars
    that pass these tests, one per orbit of the base's automorphisms is
    attached: the tests give a whole orbit one verdict, and its stars give
    isomorphic candidates.  Every level runs in this process.  Each level's
    (hereditary, cores) is memoized per (level, top), so a larger bound asked
    for after a smaller one scans the smaller one's top level again as a source
    level.  The cores do not depend on ``top``, since the top level skips only
    certified, hence shellable, candidates; so a top level whose source scan is
    memoized already is read from that entry and not scanned again.
    """
    _check_bound(max_vertices)
    sources: list[tuple[int, ...]] = [(), ((0b111),)]
    lower: list[tuple[int, ...]] = []
    out = {}
    for s in range(4, max_vertices + 1):
        top = s == max_vertices and (s, False) not in _CORES_MEMO
        hereditary, cores = cache.memo(_CORES_MEMO, (s, top), _scan_level, sources, s, lower, top)
        sources = sources + hereditary
        lower = lower + cores
        out[s] = list(cores)
    return out


# ---------------------------------------------------------------------------
# obstruction enumeration
# ---------------------------------------------------------------------------

_DIM2_MEMO: dict[int, list[SimplicialComplex]] = cache.new_cache()


def dim2_shellability_obstructions(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> list[SimplicialComplex]:
    """All 2-dimensional obstructions to shellability, one canonical rep per class.

    Core search plus edge augmentation: every obstruction's facets are its
    triangle core plus edge facets on the same vertices, so augmenting each
    core with every subset of its non-face pairs and filtering with the
    direct obstruction check is exhaustive.  Each core's subsets are
    visited one orbit of its automorphisms at a time.
    """
    _check_bound(max_vertices)  # before the memo, whose key 1 a bound of True would hit
    return list(cache.memo(_DIM2_MEMO, max_vertices, _dim2_obstructions, max_vertices))


def _edge_orbit_reps(core: tuple[int, ...], pairs: list[int]) -> list[int]:
    """The least edge set of each orbit of the core's automorphisms on the
    subsets of its non-face pairs, each as a bit mask over ``pairs``.

    An automorphism maps faces to faces, so it permutes the non-face pairs;
    an image of one that is a face means a wrong automorphism and raises.
    """
    deg = tuple(sum(t >> u & 1 for t in core) for u in range(union(core).bit_length()))
    position = {p: i for i, p in enumerate(pairs)}
    moves = []
    for g in _automorphisms(core, deg):
        images = [(1 << g[a]) | (1 << g[b]) for a, b in map(face_vertices, pairs)]
        if not all(p in position for p in images):
            raise RuntimeError("an automorphism of a core maps a non-face pair to a face")
        moves.append([position[p] for p in images])
    reps = []
    scanned: set[int] = set()
    for ebits in range(1 << len(pairs)):
        if ebits in scanned:
            continue
        reps.append(ebits)
        ones = [i for i in range(len(pairs)) if ebits >> i & 1]
        scanned.update(sum(1 << m[i] for i in ones) for m in moves)
    return reps


def _dim2_obstructions(max_vertices: int) -> list[SimplicialComplex]:
    """The obstructions over the cores of ``triangle_cores(max_vertices)``,
    whose top level is scanned for cores only.

    Only the least edge set of each orbit of a core's automorphisms is
    labelled and checked: an isomorphism between two augmentations of one
    core maps its triangles onto themselves, so it is an automorphism of the
    core, and the least edge set is the one a scan of every edge set in order
    reaches its class from first.  A class reached twice means a missing
    automorphism and raises.
    """
    results: dict[CanonicalForm, SimplicialComplex] = {}
    checked: set[CanonicalForm] = set()
    for s, cores in sorted(triangle_cores(max_vertices).items()):
        for core in cores:
            base = from_facets(core)
            pairs = _non_face_pairs(base)
            for ebits in _edge_orbit_reps(core, pairs):
                extra = tuple(p for i, p in enumerate(pairs) if ebits >> i & 1)
                candidate = from_facets(core + extra)
                key = candidate.canonical_form()
                if key in checked:
                    raise RuntimeError("two edge orbits of a core give isomorphic complexes")
                checked.add(key)
                if obstruction_report(candidate, PropertyKind.SHELLABLE).is_obstruction:
                    results[key] = from_facets(key.facets)
    return sorted(results.values(), key=_sort_key)


def edge_minimal(c: SimplicialComplex) -> bool:
    """No 1-dimensional facet can be dropped while remaining an obstruction.

    Vacuously true for pure complexes.  Only meaningful when the complex is a
    2-dimensional obstruction to shellability.
    """
    for e in c.facets:
        if e.bit_count() != 2:
            continue
        reduced = from_facets(tuple(f for f in c.facets if f != e))
        if obstruction_report(reduced, PropertyKind.SHELLABLE).is_obstruction:
            return False
    return True


def _graph_level(
    dim: int,
    sources: list[tuple[int, ...]],
    n: int,
    lower: list[SimplicialComplex],
    prop: PropertyKind,
    top: bool,
) -> tuple[list[tuple[int, ...]], list[SimplicialComplex]]:
    """One vertex count of ``generic_obstructions``: (hereditary classes, obstructions) on exactly n vertices.

    The sources are the canonical facet tuples of the hereditarily-P classes
    on n - 1 vertices.  The new vertex n - 1 gets a neighbourhood N: none in
    dimension 0, and in dimension 1 every N that gives it minimum degree,
    |N| <= deg(u) + [u in N] for every old vertex u.  A candidate that
    fails the copy test of the module docstring against ``lower``, on the
    codes of its vertices and edges, is dropped unlabelled.  At the top
    level P is decided on the raw candidate first, and only the candidates
    that fail it are labelled.
    """
    new = n - 1
    index = _face_index(n, (1, 2))
    shift = len(index) - n  # the faces at the new vertex: itself, then its edges
    _, around, copies = _copy_test_tables(n, [c.facets for c in lower], (1, 2))
    seen: set[CanonicalForm] = set()
    hereditary: list[tuple[int, ...]] = []
    found: list[SimplicialComplex] = []
    for rep in sources:
        base = _code(rep, index)
        deg = [sum(f >> u & 1 for f in rep if f.bit_count() == 2) for u in range(new)]
        for nb in range(1 << new if dim == 1 else 1):
            k = nb.bit_count()
            if any(k > deg[u] + (nb >> u & 1) for u in range(new)):
                continue
            if _has_core_copy(base | (1 | nb << 1) << shift, around, copies):
                continue
            star = tuple((1 << u) | (1 << new) for u in face_vertices(nb)) or (1 << new,)
            candidate = from_facets(rep + star)
            if top and satisfies(candidate, prop):
                continue
            key = candidate.canonical_form()
            if key in seen:
                continue
            seen.add(key)
            if top or not satisfies(candidate, prop):
                found.append(from_facets(key.facets))
            else:
                hereditary.append(key.facets)
    return hereditary, found


def generic_obstructions(dim: int, max_vertices: int, prop: PropertyKind) -> list[SimplicialComplex]:
    """Every obstruction to P of dimension 0 or 1 on at most max_vertices vertices, sorted.

    A level-wise search over the vertex count n, with no structural
    assumption about the obstructions: level n attaches a new vertex to each
    hereditarily-P class on n - 1 vertices (level 1 to {∅}).  It is
    complete.  Every graph has a vertex of minimum degree, and deleting it
    from a hereditarily-P class or from an obstruction leaves a
    hereditarily-P class on n - 1 vertices, a source up to relabeling; so
    every class on n vertices is reached by attaching a minimum-degree
    vertex last.  Whether a candidate is hereditarily P is the copy test of
    the module docstring.  The top level is the bound, whose hereditary classes would only be
    sources of a level that is not scanned.  Each obstruction found is
    re-checked with ``obstruction_report``, and a mismatch raises.
    """
    if dim not in (0, 1):
        raise CapacityError("exhaustive generation covers dimensions 0 and 1")
    _check_bound(max_vertices)
    sources: list[tuple[int, ...]] = [(0,)]
    out: list[SimplicialComplex] = []
    for n in range(1, max_vertices + 1):
        sources, found = _graph_level(dim, sources, n, out, prop, n == max_vertices)
        for c in found:
            if not obstruction_report(c, prop).is_obstruction:
                raise RuntimeError(f"the search found {c!r}, which is not an obstruction to {prop.value}")
        out += found
    out.sort(key=_sort_key)
    return out


def enumerate_obstructions(
    dim: int,
    prop: PropertyKind = PropertyKind.SHELLABLE,
    mode: str = "obstructions",
    max_vertices: Optional[int] = None,
) -> list[SimplicialComplex]:
    """Complete list of obstruction classes, canonical reps, sorted.

    ``mode`` is "obstructions", "strong_obstructions" or, in dimension 2,
    "edge_minimal_obstructions"; ``max_vertices`` defaults to
    ``DEFAULT_MAX_VERTICES[dim]``.  Bad arguments raise before any search.

    For partitionability and sequential Cohen-Macaulayness in dimension two,
    the list starts from the shellability obstructions: shellability implies
    both properties, so once every shellability obstruction is verified to be
    an obstruction to the weaker property too (checked here, not assumed), a
    minimal-failing-restriction argument shows the sets must coincide: any
    obstruction set difference would produce an obstruction to shellability
    satisfying the weaker property.  In that check, each proper restriction
    satisfies the weaker property by a verified shelling and the
    implication, since the deciders ask for a shelling first; that the
    obstruction itself fails it has no shelling to lean on, so the exact
    cover or the skeleton scan decides it directly.
    """
    if dim not in DEFAULT_MAX_VERTICES:
        raise CapacityError("obstruction enumeration covers dimensions 0..2")
    if mode not in ("obstructions", "strong_obstructions", "edge_minimal_obstructions"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "edge_minimal_obstructions" and dim != 2:
        raise ValueError("edge-minimality is a 2-dimensional notion")
    if not isinstance(prop, PropertyKind):
        raise ValueError(f"unknown property {prop!r}")
    if max_vertices is None:
        max_vertices = DEFAULT_MAX_VERTICES[dim]
    _check_bound(max_vertices)

    if dim <= 1:
        base = generic_obstructions(dim, max_vertices, prop)
    else:
        base = dim2_shellability_obstructions(max_vertices)
        if prop is not PropertyKind.SHELLABLE:
            for c in base:
                if not obstruction_report(c, prop).is_obstruction:
                    raise RuntimeError(
                        f"shellability obstruction is not an obstruction to {prop}: {c!r}"
                    )

    if mode == "strong_obstructions":
        return [c for c in base if obstruction_report(c, prop).is_strong]
    if mode == "edge_minimal_obstructions":
        return [c for c in base if edge_minimal(c)]
    return base


# ---------------------------------------------------------------------------
# closure and coincidence reports
# ---------------------------------------------------------------------------

class EdgeAdditionReport(NamedTuple):
    obstructions: int
    augmentations_checked: int
    augmentation_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.augmentation_failures


def verify_edge_addition_closure(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> EdgeAdditionReport:
    """Adding a non-face edge to an obstruction leaves an obstruction in the catalog.

    That every obstruction reduces to an edge-minimal one by dropping edge
    facets needs no check: it holds by descent on the facet count.  An
    obstruction that is not edge-minimal has, by definition, an edge facet
    whose removal leaves an obstruction with fewer facets, and one without
    edge facets is edge-minimal.
    """
    catalog = dim2_shellability_obstructions(max_vertices)
    known = {c.canonical_form() for c in catalog}
    checked = 0
    augmentation_failures = []
    for c in catalog:
        for pair in _non_face_pairs(c):
            grown = from_facets(c.facets + (pair,))
            checked += 1
            if not obstruction_report(grown, PropertyKind.SHELLABLE).is_obstruction:
                augmentation_failures.append(f"{c!r} + {pair:#x}")
            elif grown.canonical_form() not in known:
                augmentation_failures.append(f"{c!r} + {pair:#x} left the catalog")
    return EdgeAdditionReport(
        obstructions=len(catalog),
        augmentations_checked=checked,
        augmentation_failures=tuple(augmentation_failures),
    )


class CoincidenceReport(NamedTuple):
    dimension: int
    class_count: int
    sets_identical: bool
    witness_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.sets_identical and not self.witness_failures


def verify_coincidence(dim: int, max_vertices: Optional[int] = None) -> CoincidenceReport:
    """Obstruction sets for all three properties coincide in this dimension.

    Also re-checks, obstruction by obstruction, that each shellability
    obstruction fails the two weaker properties outright.
    """
    sets = {
        prop: {c.canonical_form() for c in enumerate_obstructions(dim, prop, max_vertices=max_vertices)}
        for prop in PropertyKind
    }
    identical = (
        sets[PropertyKind.SHELLABLE] == sets[PropertyKind.PARTITIONABLE] == sets[PropertyKind.SEQUENTIALLY_CM]
    )
    failures = []
    for key in sorted(sets[PropertyKind.SHELLABLE]):
        c = from_facets(key.facets)
        for prop in (PropertyKind.PARTITIONABLE, PropertyKind.SEQUENTIALLY_CM):
            if satisfies(c, prop):
                failures.append(f"{c!r} satisfies {prop.value}")
    return CoincidenceReport(
        dimension=dim,
        class_count=len(sets[PropertyKind.SHELLABLE]),
        sets_identical=identical,
        witness_failures=tuple(failures),
    )
