"""Exhaustive, isomorph-free searches over small complexes.

Two layers live here.

The generic layer (enumerate_complexes) grows complexes of dimension 0 or 1
edge by edge with canonical-form rejection and no structural assumptions;
the obstructions in those dimensions are read off it directly.

The dimension-two obstruction search proper runs on the triangle cores of
candidate complexes.  For a two-dimensional obstruction, the edge facets only
influence connectivity of the 1-skeleton; its triangle set T must satisfy

    gen(T) is nonshellable, and the triangles inside any proper vertex
    subset generate a shellable complex,

because restrictions of an obstruction are shellable and a two-dimensional
complex is shellable exactly when its pure 2-skeleton is shellable and its
edge part is connected.  Vertices outside the triangle support are
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
minimum-degree vertices last.  A star removal is not decided again either:
a minimal nonshellable restriction of a triangle set has full support, so it
is a core, and a set is hereditarily shellable exactly when none of its
restrictions is a labelled copy of a core.  A candidate's restrictions that
leave out the new vertex are restrictions of its hereditarily shellable
base, so only the vertex sets that hold the new vertex and miss an old one
are tested, each as a triangle mask against every labelled copy of the
cores already found below the level (7 on five vertices and 2 on six below
the top level).  Whether an attached star gives the new vertex minimum degree
depends only on the base's vertex degrees and the star's deficit vector, so
each level groups the stars by deficit vector once and reads the admissible
ones per degree vector.  Only one star from each orbit of the base's
automorphism group is attached, the orbit half of McKay's canonical
augmentation: an automorphism of the base fixes its degrees, its uncovered
vertices and its face pairs, so it maps a star to one that passes the same
tests and gives an isomorphic candidate, and skipping the rest of the orbit
loses no class.  A cheap cone-extension certificate proves many candidates
shellable, as every base is: below the top level a class it certifies is
hereditary without a shelling search, and the top level, which only needs
the cores, skips certified candidates outright.

The vertex ceiling of seven is Wachs' classical bound for two-dimensional
minimally nonshellable complexes; the search relies on it only as a stop
level and reports the top stratum completing without truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, permutations, product
from operator import le
from typing import Iterable, Optional

from . import cache
from .complexes import (
    CanonicalForm,
    CapacityError,
    SimplicialComplex,
    components,
    face_vertices,
    from_facets,
    union,
)
from .obstruction import obstruction_report
from .properties import PropertyKind, satisfies
from .shelling import is_shellable

MAX_OBSTRUCTION_VERTICES = 7

# ---------------------------------------------------------------------------
# generic isomorph-free generation
# ---------------------------------------------------------------------------

def _sort_key(c: SimplicialComplex) -> tuple:
    canon = c.canonical_form()
    return (canon.n_vertices, len(c.facets), canon.facets)


def _grow_classes(seed: SimplicialComplex, n: int, additions) -> list[SimplicialComplex]:
    """All classes reachable from the seed by repeatedly adding one facet.

    ``additions(c, range(n))`` yields candidate facet masks within the
    n-vertex universe; duplicates are rejected through canonical forms,
    level by level, so each isomorphism class is visited once.
    """
    seen = {seed.canonical_form(): seed}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for c in frontier:
            for add in additions(c, range(n)):
                grown = from_facets(c.facets + (add,))
                key = grown.canonical_form()
                if key not in seen:
                    seen[key] = grown
                    next_frontier.append(grown)
        frontier = next_frontier
    return list(seen.values())


def _non_face_pairs(c: SimplicialComplex, vertices: Iterable[int]) -> list[int]:
    """The vertex pairs among ``vertices`` that are not faces of c."""
    faces = c.faces()
    out = []
    for a, b in combinations(vertices, 2):
        m = (1 << a) | (1 << b)
        if m not in faces:
            out.append(m)
    return out


def _pad_isolated(c: SimplicialComplex, n: int) -> SimplicialComplex:
    """Append isolated vertices (0-facets) until the complex sits on n vertices."""
    missing = n - c.n_vertices
    extra = []
    label = 0
    while missing:
        if not c.vertices & (1 << label):
            extra.append(1 << label)
            missing -= 1
        label += 1
    return from_facets(c.facets + tuple(extra)) if extra else c


def enumerate_complexes(
    dim: int, n: int, include_zero_facets: bool = False
) -> list[SimplicialComplex]:
    """Every isomorphism class of complexes of this dimension on exactly n vertices.

    Dimension 0 has one class, n isolated vertices.  In dimension 1 every
    vertex must by default lie in an edge, so this enumerates graphs without
    isolated vertices; with include_zero_facets=True, leftover vertices are
    allowed as 0-facets (the classes generic_obstructions filters).  Higher
    dimensions are out of scope: dimension-2 obstructions come from the
    pruned core pipeline.
    """
    if dim not in (0, 1):
        raise CapacityError("exhaustive generation covers dimensions 0 and 1")
    if n < 1 or n > MAX_OBSTRUCTION_VERTICES:
        raise CapacityError(f"vertex count must be 1..{MAX_OBSTRUCTION_VERTICES}")
    if dim == 0:
        return [from_facets([1 << i for i in range(n)])]
    if n < 2:
        return []
    return _exact_classes(_grow_classes(from_facets([0b11]), n, _non_face_pairs), n, include_zero_facets)


def _exact_classes(
    classes: list[SimplicialComplex], n: int, include_zero_facets: bool
) -> list[SimplicialComplex]:
    """The distinct classes on exactly n vertices, padded with 0-facets if
    allowed and dropped otherwise, as sorted canonical representatives."""
    out = []
    seen: set[CanonicalForm] = set()
    for c in classes:
        if include_zero_facets:
            padded = _pad_isolated(c, n)
        elif c.n_vertices != n:
            continue
        else:
            padded = c
        key = padded.canonical_form()
        if key not in seen:
            seen.add(key)
            out.append(from_facets(key.facets))
    out.sort(key=_sort_key)
    return out


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
        # the triangles on vertices 0..s-1 by top vertex, then in the order of
        # the pairs below it, so that the star of a link d is d << star_shift
        triangles = [(1 << a) | (1 << b) | (1 << c) for c in range(s) for a, b in combinations(range(c), 2)]
        self.index = {t: i for i, t in enumerate(triangles)}
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

    def mask(self, triangles: Iterable[int]) -> int:
        """The triangle set as a mask over the level's triangle numbering."""
        return sum(1 << self.index[t] for t in triangles)


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


# The core scan's hereditary test reads these: per level, the triangle masks
# of the vertex sets it restricts to, and per level and lower cores, the
# masks of every labelled copy of a core.
_HSTAR_RAW: dict[int, dict[int, int]] = cache.new_cache()
_HSTAR_CANON: dict[tuple, frozenset[int]] = cache.new_cache()


def _restrictions(s: int) -> dict[int, int]:
    """The triangle mask of every proper vertex set W of 0..s-1 with at least
    five vertices, keyed by W.  No core has fewer: a triangle set on four
    vertices lies in the boundary of a tetrahedron, and every such set shells."""
    return cache.memo(_HSTAR_RAW, s, _restriction_masks, s)


def _restriction_masks(s: int) -> dict[int, int]:
    index = _pair_tables(s).index
    out = {}
    for k in range(5, s):
        for vertices in combinations(range(s), k):
            w = sum(1 << v for v in vertices)
            out[w] = sum(1 << i for t, i in index.items() if t & ~w == 0)
    return out


def _core_copies(s: int, lower: list[tuple[int, ...]]) -> frozenset[int]:
    """The triangle masks of every relabeling of the cores into vertices 0..s-1."""
    return cache.memo(_HSTAR_CANON, (s, tuple(lower)), _copy_masks, s, lower)


def _copy_masks(s: int, lower: list[tuple[int, ...]]) -> frozenset[int]:
    index = _pair_tables(s).index
    copies = set()
    for core in lower:
        corners = [face_vertices(t) for t in core]
        for image in permutations(range(s), union(core).bit_length()):
            bits = [1 << v for v in image]
            copies.add(sum(1 << index[bits[a] | bits[b] | bits[c]] for a, b, c in corners))
    return frozenset(copies)


def _has_core_copy(mask: int, restrictions: Iterable[int], copies: frozenset[int]) -> bool:
    """Whether the triangle set's restriction to one of the vertex sets, given
    by their triangle masks, is a labelled copy of a core.  A restriction
    that equals a copy on fewer vertices contains that core too, so one set
    of copies serves every size of vertex set."""
    return any(mask & w in copies for w in restrictions)


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
    grouped by deficit vector, with the sources scanned in key order.  Of the
    links of one source, only the first of each orbit of the source's
    automorphisms (permutations of the old vertices that map its triangles
    onto themselves) is attached.  That is complete: an automorphism fixes
    the degree vector, the extras and the face pairs, so the links of an
    orbit are all admissible, all certified or none, and give isomorphic
    candidates with isomorphic star removals.  The first candidate of a
    class in the full scan order is the first link of its orbit, so the
    class is still found, and certified or not, from the same candidate.
    An image of an admissible link that is not admissible means a wrong
    automorphism and raises.  ``lower`` holds every core below s: a
    candidate's star removals are all hereditarily shellable exactly when
    none of its restrictions to a vertex set that holds the new vertex and
    misses an old one is a labelled copy of one of them, tested on triangle
    masks (``_has_core_copy``).  With a core missing, classes can be lost.
    Every source is shellable, so a cone-extension certificate proves a
    candidate shellable at any level: at the terminal level, where only the
    cores are wanted, certified candidates are skipped and no hereditary
    classes are emitted; below it, a new class whose first candidate is
    certified is hereditary without a shelling search.  Candidates are
    tested against ``lower`` alone, never against the sources, so a slice of
    the sources gives the classes that its candidates reach.
    """
    tables = _pair_tables(s)
    pairs = tables.pairs
    n_pairs = tables.n_pairs
    shift = tables.star_shift
    restrictions = _restrictions(s)
    around = [m for w, m in restrictions.items() if w >> (s - 1) & 1]
    copies = _core_copies(s, lower)
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
    image_tables: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for (deg, extras), group in groupby(keyed, key=lambda item: item[:2]):
        links = _admissible_links(groups, deg, extras, tables)
        admissible = set(links)
        for _, _, xprime in group:
            base = tables.mask(xprime)
            face_mask = _face_pair_mask(xprime, tables)
            # each automorphism as two byte tables of its action on link masks
            # (the at most 15 pairs below a seventh vertex fit in two bytes)
            images = []
            for g in _automorphisms(xprime, deg) if len(links) > 1 else ():
                if g not in image_tables:
                    bits = [1 << pairs.index((1 << g[a]) | (1 << g[b])) for a, b in tables.ends]
                    bits += [0] * (16 - n_pairs)
                    lo, hi = [0] * 256, [0] * 256
                    for x in range(1, 256):
                        low = x & -x
                        i = low.bit_length() - 1
                        lo[x] = lo[x ^ low] | bits[i]
                        hi[x] = hi[x ^ low] | bits[8 + i]
                    image_tables[g] = lo, hi
                images.append(image_tables[g])
            scanned: set[int] = set()
            for d in links:
                if len(images) > 1:
                    if d in scanned:
                        continue
                    orbit = {lo[d & 255] | hi[d >> 8] for lo, hi in images}
                    if not orbit <= admissible:
                        raise RuntimeError(
                            "an automorphism of a source maps an admissible link to one that is not"
                        )
                    scanned |= orbit
                certified = _cone_extension_shellable(d, face_mask, tables)
                if terminal and certified:
                    continue
                if _has_core_copy(base | d << shift, around, copies):
                    continue
                star = tuple(pairs[i] | v_bit for i in range(n_pairs) if d >> i & 1)
                key = from_facets(xprime + star).canonical_form()
                if key in seen:
                    continue
                seen.add(key)
                rep = key.facets
                if not certified and not is_shellable(from_facets(rep)).shellable:
                    cores.append(rep)
                elif not terminal:
                    # shellable + the per-vertex filter already implies hereditary
                    if _has_core_copy(tables.mask(rep), restrictions.values(), copies):
                        raise RuntimeError("a star removal of a new class is not hereditarily shellable")
                    hereditary.append(rep)
    return sorted(hereditary), sorted(cores)


_CORES_MEMO: dict[int, tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = cache.new_cache()


def triangle_cores(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> dict[int, list[tuple[int, ...]]]:
    """Nonshellable triangle sets all of whose proper triangle restrictions shell.

    Returned per support size, each core as its canonical facet tuple.  These
    are exactly the possible pure 2-skeletons of two-dimensional obstructions
    to shellability.  Levels are scanned by support size, each attaching a
    minimum-degree vertex to the hereditarily shellable sets found below it,
    with the admissible stars read from a per-level deficit table and one
    star attached per orbit of the base's automorphisms (the others give
    isomorphic candidates).  A candidate is kept when each star removal is
    hereditarily shellable, that is, when no restriction of it is isomorphic
    to a core found at a lower level.  A cone-extension certificate settles
    shellability at every level: below the top level it classifies the
    classes it certifies, leaving the shelling search only the cores up to
    six vertices, and the top level, which only needs the cores, skips
    certified candidates.  Every level runs in this process.  Each level's
    (hereditary, cores) is memoized once, whatever bound asked for it.
    """
    if max_vertices > MAX_OBSTRUCTION_VERTICES:
        raise CapacityError(f"core search is bounded at {MAX_OBSTRUCTION_VERTICES} vertices")
    sources: list[tuple[int, ...]] = [(), ((0b111),)]
    lower: list[tuple[int, ...]] = []
    out = {}
    for s in range(4, max_vertices + 1):
        terminal = s == MAX_OBSTRUCTION_VERTICES
        hereditary, cores = cache.memo(_CORES_MEMO, s, _scan_level, sources, s, lower, terminal)
        sources = sources + hereditary
        lower = lower + cores
        out[s] = list(cores)
    return out


# ---------------------------------------------------------------------------
# obstruction enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationTask:
    dimension: int
    property: PropertyKind = PropertyKind.SHELLABLE
    mode: str = "obstructions"  # | strong_obstructions | edge_minimal_obstructions
    max_vertices: Optional[int] = None

    def resolved_max_vertices(self) -> int:
        if self.max_vertices is not None:
            if not 1 <= self.max_vertices <= MAX_OBSTRUCTION_VERTICES:
                raise CapacityError(
                    f"max_vertices must be 1..{MAX_OBSTRUCTION_VERTICES}"
                )
            return self.max_vertices
        return {0: 7, 1: 6, 2: 7}[self.dimension]

    def __post_init__(self):
        if self.dimension not in (0, 1, 2):
            raise CapacityError("obstruction enumeration covers dimensions 0..2")
        if self.mode not in ("obstructions", "strong_obstructions", "edge_minimal_obstructions"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "edge_minimal_obstructions" and self.dimension != 2:
            raise ValueError("edge-minimality is a 2-dimensional notion")


_DIM2_MEMO: dict[int, list[SimplicialComplex]] = cache.new_cache()


def dim2_shellability_obstructions(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> list[SimplicialComplex]:
    """All 2-dimensional obstructions to shellability, one canonical rep per class.

    Core search plus edge augmentation: every obstruction's facets are its
    triangle core plus edge facets on the same vertices, so augmenting each
    core with every subset of its non-face pairs and filtering with the
    direct obstruction check is exhaustive.
    """
    return list(cache.memo(_DIM2_MEMO, max_vertices, _dim2_obstructions, max_vertices))


def _dim2_obstructions(max_vertices: int) -> list[SimplicialComplex]:
    results: dict[CanonicalForm, SimplicialComplex] = {}
    checked: set[CanonicalForm] = set()
    for s, cores in sorted(triangle_cores(max_vertices).items()):
        for core in cores:
            base = from_facets(core)
            pairs = _non_face_pairs(base, base.vertex_ids())
            for ebits in range(1 << len(pairs)):
                extra = tuple(p for i, p in enumerate(pairs) if ebits >> i & 1)
                candidate = from_facets(core + extra)
                key = candidate.canonical_form()
                if key in checked:
                    continue
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


def generic_obstructions(dim: int, max_vertices: int, prop: PropertyKind) -> list[SimplicialComplex]:
    """Assumption-free path in dimension 0 or 1: enumerate every class and filter."""
    out = []
    for n in range(1, max_vertices + 1):
        for c in enumerate_complexes(dim, n, include_zero_facets=True):
            if obstruction_report(c, prop).is_obstruction:
                out.append(c)
    out.sort(key=_sort_key)
    return out


def enumerate_obstructions(task: EnumerationTask) -> list[SimplicialComplex]:
    """Complete list of obstruction classes for the task, canonical reps, sorted.

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
    n_max = task.resolved_max_vertices()
    if task.dimension <= 1:
        base = generic_obstructions(task.dimension, n_max, task.property)
    else:
        base = dim2_shellability_obstructions(n_max)
        if task.property is not PropertyKind.SHELLABLE:
            for c in base:
                if not obstruction_report(c, task.property).is_obstruction:
                    raise RuntimeError(
                        f"shellability obstruction is not an obstruction to {task.property}: {c!r}"
                    )

    if task.mode == "strong_obstructions":
        return [c for c in base if obstruction_report(c, task.property).is_strong]
    if task.mode == "edge_minimal_obstructions":
        return [c for c in base if edge_minimal(c)]
    return base


# ---------------------------------------------------------------------------
# closure and coincidence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeAdditionReport:
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
        for pair in _non_face_pairs(c, c.vertex_ids()):
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


@dataclass(frozen=True)
class CoincidenceReport:
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
    tasks = {
        prop: EnumerationTask(dim, prop, "obstructions", max_vertices)
        for prop in PropertyKind
    }
    sets = {
        prop: {c.canonical_form() for c in enumerate_obstructions(task)}
        for prop, task in tasks.items()
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
