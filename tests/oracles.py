"""Independent reference implementations that the tests compare the library against.

None of these is part of the package: each restates a definition or a
characterisation directly, without the fast paths, prescreens or memo tables
of the deciders it checks.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Optional

from shellability import cache
from shellability.cohen_macaulay import CMReport, CMWitness, is_cohen_macaulay
from shellability.complexes import (
    CanonicalForm,
    CapacityError,
    InvalidFaceError,
    SimplicialComplex,
    _facet_sort_key,
    face_vertices,
    from_facets,
    subsets_of,
    union,
)
from shellability.enumeration import MAX_OBSTRUCTION_VERTICES, _sort_key
from shellability.graphs import Graph, graph_from_edges, independence_complex
from shellability.homology import HomologyGroup, reduced_homology, smith_normal_form
from shellability.obstruction import ObstructionReport, _proper_subsets_desc, obstruction_report
from shellability.properties import PropertyKind, satisfies
from shellability.shelling import ShellingDecision, _attach_order, _certificate, is_shellable

from conftest import is_connected, relabel


def all_faces(c: SimplicialComplex) -> list[int]:
    """All faces as a deterministic sorted list (by dimension, then mask)."""
    return sorted(c.faces(), key=_facet_sort_key)


def plain_search_ordering(c: SimplicialComplex) -> Optional[tuple[int, ...]]:
    """Exact backtracking search for a shelling, nonincreasing dimensions only.

    The reference for ``shelling._search_ordering``: the same search with no
    record of the facet sets that failed to extend, so it may try every
    ordering.
    """
    facets = sorted(c.facets, key=lambda m: (-m.bit_count(), m))
    total = len(facets)
    chosen: list[int] = []
    covered: set[int] = set()
    used = [False] * total

    def extend() -> bool:
        if len(chosen) == total:
            return True
        max_size = max(facets[i].bit_count() for i in range(total) if not used[i])
        candidates = []
        for i in range(total):
            if used[i] or facets[i].bit_count() != max_size:
                continue
            fct = facets[i]
            r = 0
            for v in face_vertices(fct):
                if fct ^ (1 << v) in covered:
                    r |= 1 << v
            if r in covered:
                continue
            candidates.append((-r.bit_count(), fct, i))
        candidates.sort()
        for _, fct, i in candidates:
            used[i] = True
            chosen.append(fct)
            added = [s for s in subsets_of(fct) if s not in covered]
            covered.update(added)
            if extend():
                return True
            for s in added:
                covered.remove(s)
            chosen.pop()
            used[i] = False
        return False

    return tuple(chosen) if extend() else None


def shellable_by_search(c: SimplicialComplex) -> ShellingDecision:
    """Plain backtracking decision with no fast paths, prescreens or caching.

    Exists so the structural shortcuts can be validated against the generic
    search; prefer is_shellable everywhere else.
    """
    ordering = plain_search_ordering(c)
    if ordering is None:
        return ShellingDecision(False)
    return ShellingDecision(True, _certificate(c, ordering))


def fast_paths_agree(c: SimplicialComplex) -> bool:
    """Compare ``is_shellable``, its low-facet rule and prescreen included,
    against the raw search (test support)."""
    return is_shellable(c).shellable == shellable_by_search(c).shellable


def shellable_through_skeletons(c: SimplicialComplex) -> ShellingDecision:
    """The dimension <= 2 criteria, with both skeletons built as complexes.

    The reference for ``is_shellable`` below dimension 3: the branch it ran
    before it read the 3-vertex facets and the edge classes straight from
    the facet list, with the order of the pure 2-skeleton read from that
    skeleton's own decision.
    """
    d = c.dim
    if d <= 0 or d > 2:
        raise ValueError("the skeleton criteria cover dimensions 1 and 2")
    top: tuple[int, ...] = ()
    if d == 2:
        skeleton = is_shellable(c.pure_skeleton(2)).certificate
        if skeleton is None:
            return ShellingDecision(False)
        top = skeleton.ordering
    if not is_connected(c.pure_skeleton(1)):
        return ShellingDecision(False)
    edges = [f for f in c.facets if f.bit_count() == 2]
    tail = _attach_order(union(top), edges)
    isolated = sorted(f for f in c.facets if f.bit_count() == 1)
    return ShellingDecision(True, _certificate(c, [*top, *tail, *isolated]))


def skeleton_prescreen_by_skeletons(c: SimplicialComplex) -> bool:
    """The reference for ``shelling._skeleton_prescreen_nonshellable``:
    every built pure skeleton, 1 included, is checked for strong
    connectivity and for low homology, as before each was read from the
    facets with enough vertices."""
    for i in range(1, c.dim + 1):
        skel = c.pure_skeleton(i)
        if not skel.strongly_connected() or any(not reduced_homology(skel, k).is_trivial() for k in range(i)):
            return True
    return False


def link_by_definition(c: SimplicialComplex, tau: int) -> SimplicialComplex:
    """The reference for ``SimplicialComplex.link``: the faces through τ less
    τ, sorted and absorbed by ``from_facets``, as before the link took its
    facets as they come."""
    if not any(tau & ~fct == 0 for fct in c.facets):
        raise InvalidFaceError(f"{face_vertices(tau)} is not a face of the complex")
    return from_facets([fct & ~tau for fct in c.facets if fct & tau == tau])


def pure_skeleton_by_definition(c: SimplicialComplex, i: int) -> SimplicialComplex:
    """The reference for ``SimplicialComplex.pure_skeleton``: the i-faces
    sorted and absorbed by ``from_facets``."""
    return from_facets(c.faces_of_dim(i))


def is_obstruction_via_deletions(c: SimplicialComplex, prop: PropertyKind) -> bool:
    """Equivalent formulation by deleting nonempty vertex sets (test support)."""
    if satisfies(c, prop):
        return False
    verts = face_vertices(c.vertices)
    for drop in range(1, len(verts) + 1):
        for removed in combinations(verts, drop):
            u = 0
            for v in removed:
                u |= 1 << v
            if not satisfies(c.deletion(u), prop):
                return False
    return True


def _naive_failing_restriction(c: SimplicialComplex, prop: PropertyKind) -> Optional[int]:
    """The first proper restriction, largest first, that fails the property."""
    for w in _proper_subsets_desc(c.vertices):
        if not satisfies(c.restriction(w), prop):
            return w
    return None


def naive_obstruction_report(c: SimplicialComplex, prop: PropertyKind) -> ObstructionReport:
    """The reference for ``obstruction.obstruction_report``.

    Decides every one of the 2^n - 1 proper restrictions under its own
    labels, largest first, with no recursion over isomorphism classes and no
    memo of hereditary verdicts.
    """
    if satisfies(c, prop):
        return ObstructionReport(False, False)
    w = _naive_failing_restriction(c, prop)
    if w is not None:
        return ObstructionReport(False, False, failing_restriction=w)
    for tau in all_faces(c):
        if tau == 0:
            continue
        if not satisfies(c.link(tau), prop):
            return ObstructionReport(True, False, failing_link=tau)
    return ObstructionReport(True, True)


def naive_is_hereditary(c: SimplicialComplex, prop: PropertyKind) -> tuple[bool, Optional[int]]:
    """The reference for ``obstruction.is_hereditary``, by the same subset scan."""
    if not satisfies(c, prop):
        return False, c.vertices
    w = _naive_failing_restriction(c, prop)
    return w is None, w


def strong_obstruction_by_definition(c: SimplicialComplex, prop: PropertyKind) -> bool:
    """The literal product-form definition of a strong obstruction.

    Quantifies jointly over restrictions W and faces tau of the restriction,
    excepting only the whole complex itself (W = V, tau = empty).  Used to
    validate the link-preserving simplification in obstruction_report.
    """
    if satisfies(c, prop):
        return False
    subsets = list(_proper_subsets_desc(c.vertices)) + [c.vertices]
    for w in subsets:
        restricted = c.restriction(w)
        for tau in sorted(restricted.faces(), key=lambda m: (m.bit_count(), m)):
            if w == c.vertices and tau == 0:
                continue
            if not satisfies(restricted.link(tau), prop):
                return False
    return True


def hereditary_via_obstructions(c: SimplicialComplex, prop: PropertyKind) -> bool:
    """Characterisation: hereditary iff no restriction is an obstruction (test support)."""
    for w in list(_proper_subsets_desc(c.vertices)) + [c.vertices]:
        if obstruction_report(c.restriction(w), prop).is_obstruction:
            return False
    return True


def hereditary_via_strong_obstructions(c: SimplicialComplex, prop: PropertyKind) -> bool:
    """Characterisation through links: no link of any restriction is a strong obstruction.

    Valid for link-preserving properties only (all of PropertyKind is).
    """
    for w in list(_proper_subsets_desc(c.vertices)) + [c.vertices]:
        restricted = c.restriction(w)
        for tau in sorted(restricted.faces(), key=lambda m: (m.bit_count(), m)):
            if obstruction_report(restricted.link(tau), prop).is_strong:
                return False
    return True


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


def _pad_isolated(c: SimplicialComplex, n: int) -> SimplicialComplex:
    """Append isolated vertices (0-facets) until the complex sits on n vertices."""
    missing = n - c.n_vertices
    if missing < 0:
        raise ValueError(f"a complex on {c.n_vertices} vertices cannot be padded to {n}")
    extra = []
    label = 0
    while missing:
        if not c.vertices & (1 << label):
            extra.append(1 << label)
            missing -= 1
        label += 1
    return from_facets(c.facets + tuple(extra)) if extra else c


def enumerate_complexes(dim: int, n: int) -> list[SimplicialComplex]:
    """Every isomorphism class of complexes of this dimension on exactly n vertices.

    Dimension 0 has one class, n isolated vertices.  In dimension 1 the
    vertices that lie in no edge are 0-facets, so this enumerates the graphs
    on n vertices with at least one edge.  Higher dimensions are out of
    scope: dimension-2 obstructions come from the pruned core pipeline.
    """
    return _exact_classes(_seed_classes(dim, n), n)


def _seed_classes(dim: int, n: int) -> list[SimplicialComplex]:
    """Classes that pad out to every class of the dimension on at most n
    vertices: one vertex in dimension 0, and in dimension 1 every graph
    without isolated vertices, grown edge by edge on n vertices."""
    if dim not in (0, 1):
        raise CapacityError("exhaustive generation covers dimensions 0 and 1")
    if n < 1 or n > MAX_OBSTRUCTION_VERTICES:
        raise CapacityError(f"vertex count must be 1..{MAX_OBSTRUCTION_VERTICES}")
    if dim == 0:
        return [from_facets([1])]
    return _grow_classes(from_facets([0b11]), n, _edge_candidates)


def _exact_classes(classes: list[SimplicialComplex], n: int) -> list[SimplicialComplex]:
    """The distinct classes on exactly n vertices made by padding the classes
    on at most n vertices with 0-facets, as sorted canonical representatives."""
    out = []
    seen: set[CanonicalForm] = set()
    for c in classes:
        if c.n_vertices > n:
            continue
        key = _pad_isolated(c, n).canonical_form()
        if key not in seen:
            seen.add(key)
            out.append(from_facets(key.facets))
    out.sort(key=_sort_key)
    return out


def edge_growth_obstructions(dim: int, max_vertices: int, prop: PropertyKind) -> list[SimplicialComplex]:
    """The reference for ``enumeration.generic_obstructions``: every class of
    the dimension on each vertex count up to max_vertices, grown edge by
    edge, filtered by the obstruction check and sorted the same way."""
    out = [
        c
        for n in range(1, max_vertices + 1)
        for c in enumerate_complexes(dim, n)
        if obstruction_report(c, prop).is_obstruction
    ]
    out.sort(key=_sort_key)
    return out


def two_k2_free_graph_classes(n: int) -> int:
    """The number of graphs on n vertices with no induced 2K2, up to isomorphism.

    Brute force over the labelled graphs whose degrees do not decrease with
    the vertex id, which meet every class.  In such a graph each degree's
    vertices are a run of ids, and two such graphs are isomorphic only
    through a permutation of each run, so the least edge set over those
    permutations is a class key.
    """
    pairs = [frozenset(p) for p in combinations(range(n), 2)]
    keys = set()
    for bits in range(1 << len(pairs)):
        edges = {p for i, p in enumerate(pairs) if bits >> i & 1}
        deg = [sum(v in e for e in edges) for v in range(n)]
        if deg != sorted(deg):
            continue
        if any(
            not e & f and not any(frozenset((x, y)) in edges for x in e for y in f)
            for e, f in combinations(edges, 2)
        ):
            continue
        runs = [[v for v in range(n) if deg[v] == k] for k in sorted(set(deg))]
        keys.add(min(
            tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
            for perm in ([v for run in images for v in run] for images in product(*map(permutations, runs)))
        ))
    return len(keys)


def _edge_candidates(c: SimplicialComplex, vertices) -> list[int]:
    """The vertex pairs among ``vertices`` that are not faces of c."""
    faces = c.faces()
    pairs = (union(1 << v for v in combo) for combo in combinations(vertices, 2))
    return [m for m in pairs if m not in faces]


def _triangle_candidates(c: SimplicialComplex, vertices) -> list[int]:
    """The vertex triples among ``vertices`` that are not facets of c."""
    facets = set(c.facets)
    triples = (union(1 << v for v in combo) for combo in combinations(vertices, 3))
    return [m for m in triples if m not in facets]


def enumerate_dim2_complexes(n: int) -> list[SimplicialComplex]:
    """Every class of complexes of dimension 2 on exactly n <= 6 vertices,
    0-facets included.

    The generic generator that the dimension-2 obstruction search replaces:
    grow the triangle classes triangle by triangle, then grow each one edge
    by edge, with canonical-form rejection and no structural assumptions.
    Past six vertices the class count is out of reach.
    """
    if not 1 <= n <= 6:
        raise CapacityError("generic dimension-2 generation covers 1..6 vertices")
    if n < 3:
        return []
    classes = []
    for t in _grow_classes(from_facets([0b111]), n, _triangle_candidates):
        classes.extend(_grow_classes(t, n, _edge_candidates))
    return _exact_classes(classes, n)


def generic_dim2_obstructions(max_vertices: int, prop: PropertyKind) -> list[SimplicialComplex]:
    """The reference for ``enumeration.dim2_shellability_obstructions``:
    every 2-dimensional class on at most max_vertices vertices, 0-facets
    included, filtered by the obstruction check."""
    out = [
        c
        for n in range(1, max_vertices + 1)
        for c in enumerate_dim2_complexes(n)
        if obstruction_report(c, prop).is_obstruction
    ]
    out.sort(key=_sort_key)
    return out


_HSTAR_RAW = cache.new_cache()
_HSTAR_CANON = cache.new_cache()


def _star_removed(triangles: tuple[int, ...], v: int) -> tuple[int, ...]:
    bit = 1 << v
    return tuple(t for t in triangles if not t & bit)


def _triangle_components(triangles: tuple[int, ...]) -> int:
    comps: list[int] = []
    for t in triangles:
        merged = t
        rest = []
        for c in comps:
            if c & merged:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        comps = rest
    return len(comps)


def _hereditary_star_shellable(triangles: tuple[int, ...]) -> bool:
    """Every vertex-subset restriction of the triangle set generates a shellable complex.

    Restrictions here keep whole triangles only (the pure 2-skeleton of a
    restriction); lower-dimensional leftovers are irrelevant to this check.
    """
    if len(triangles) <= 1:
        return True
    hit = _HSTAR_RAW.get(triangles)
    if hit is not None:
        return hit
    if _triangle_components(triangles) > 1:
        verdict = False  # disconnected pure 2-complexes are never shellable
    else:
        c = from_facets(triangles)
        canon = c.canonical_form()
        verdict = _HSTAR_CANON.get(canon)
        if verdict is None:
            if not is_shellable(c).shellable:
                verdict = False
            else:
                verdict = all(
                    _hereditary_star_shellable(_star_removed(triangles, v))
                    for v in c.vertex_ids()
                )
            cache.trim(_HSTAR_CANON)
            _HSTAR_CANON[canon] = verdict
    cache.trim(_HSTAR_RAW)
    _HSTAR_RAW[triangles] = verdict
    return verdict


# The core scan's hereditary test before it searched star removals for lower
# cores: a star removal was looked up among the scan's sources, every
# hereditarily shellable class below the level.
_SOURCE_CANON = cache.new_cache()
_SOURCE_RAW = cache.new_cache()


def register_sources(sources: list[tuple[int, ...]]) -> None:
    """Make the canonical triangle sets known to ``source_lookup_known``."""
    _SOURCE_CANON.update(dict.fromkeys(sources, True))


def source_lookup_known(triangles: tuple[int, ...]) -> bool:
    """Whether a star removal has at most one triangle or is a source class."""
    if len(triangles) <= 1:
        return True
    verdict = _SOURCE_RAW.get(triangles)
    if verdict is None:
        verdict = from_facets(triangles).canonical_form().facets in _SOURCE_CANON
        cache.trim(_SOURCE_RAW)
        _SOURCE_RAW[triangles] = verdict
    return verdict


# The core scan's hereditary test before it tested triangle masks against
# labelled copies of the lower cores: each star removal's restrictions were
# matched against the cores (canonical facets) through a cheap invariant.  A
# verdict holds whenever every core on at most as many vertices as the
# removal has was registered, so a comparison must start from cleared tables.
_CORES_BY_INVARIANT: dict[tuple, set[tuple[int, ...]]] = cache.new_cache()
_CORE_FREE_RAW: dict[tuple[int, ...], bool] = cache.new_cache()


def _invariant(triangles: tuple[int, ...]) -> tuple:
    """(triangle count, sorted vertex degrees, sorted edge multiplicities),
    equal on isomorphic triangle sets."""
    degrees: dict[int, int] = {}
    edges: dict[int, int] = {}
    for t in triangles:
        for v in face_vertices(t):
            degrees[v] = degrees.get(v, 0) + 1
            e = t ^ (1 << v)
            edges[e] = edges.get(e, 0) + 1
    return len(triangles), tuple(sorted(degrees.values())), tuple(sorted(edges.values()))


def _register_cores(cores: list[tuple[int, ...]]) -> set[int]:
    """Add the cores to ``_CORES_BY_INVARIANT``; returns their support sizes."""
    for core in cores:
        _CORES_BY_INVARIANT.setdefault(_invariant(core), set()).add(core)
    return {union(core).bit_count() for core in cores}


def _core_free(triangles: tuple[int, ...], sizes: set[int]) -> bool:
    """Whether no restriction of the triangle set to k vertices, for k in
    ``sizes``, is isomorphic to a registered core on k vertices.

    Only a restriction whose invariant matches a core's gets a canonical
    form.
    """
    vertices = face_vertices(union(triangles))
    for k in sizes:
        if k > len(vertices):
            continue
        for dropped in combinations(vertices, len(vertices) - k):
            outside = sum(1 << v for v in dropped)
            part = tuple(t for t in triangles if not t & outside)
            cores = _CORES_BY_INVARIANT.get(_invariant(part))
            if cores and from_facets(part).canonical_form().facets in cores:
                return False
    return True


def _known(triangles: tuple[int, ...], sizes: set[int]) -> bool:
    """Whether a triangle set is hereditarily shellable: it has at most one
    triangle, or no restriction of it is isomorphic to a registered core.
    Every core on at most as many vertices as the set has must be registered
    and its size in ``sizes``, as a minimal nonshellable restriction is such
    a core."""
    return len(triangles) <= 1 or cache.memo(_CORE_FREE_RAW, triangles, _core_free, triangles, sizes)


def brute_force_automorphisms(triangles: tuple[int, ...], m: int) -> set[tuple[int, ...]]:
    """Every permutation of the vertices 0..m-1, as its tuple of images, that
    maps the triangle set onto itself; all m! permutations are tried."""
    target = sorted(triangles)
    out = set()
    for perm in permutations(range(m)):
        image = sorted(sum(1 << perm[v] for v in face_vertices(t)) for t in triangles)
        if image == target:
            out.add(perm)
    return out


def greedy_cone_extension_shellable(d: int, face_mask: int, tables) -> bool:
    """Greedy form of the certificate ``enumeration._cone_extension_shellable``.

    Builds (implicitly) a shelling that runs through the base first and then
    attaches the new vertex's triangles: a triangle over a face pair is
    addable first or when it shares an endpoint with an earlier pair, one
    over a non-face pair once both endpoints have been touched.  Activation
    only ever grows, so the greedy closure placing everything proves the
    whole complex shellable.  A False only means "not settled this way".
    """
    todo = d
    touched = 0
    first = True
    pairs = tables.pairs
    while todo:
        progress = False
        bits = todo
        while bits:
            low = bits & -bits
            bits ^= low
            i = low.bit_length() - 1
            pm = pairs[i]
            if face_mask >> i & 1:
                ok = first or pm & touched
            else:
                ok = not first and pm & touched == pm
            if ok:
                todo ^= low
                touched |= pm
                first = False
                progress = True
        if not progress:
            return False
    return True


def unpruned_attachment_scan(xprime: tuple[int, ...], s: int):
    """Attach a new vertex star to a smaller hereditarily shellable triangle set.

    ``xprime`` sits canonically on vertices 0..s'-1; the new vertex is s-1
    and the vertices s'..s-2 ("extras") must be covered by the attached
    triangles.  Yields raw candidate triangle sets on exactly s vertices that
    pass the per-vertex hereditary filter; the caller deduplicates.
    """
    s_prime = union(xprime).bit_count()
    v_bit = 1 << (s - 1)
    pairs = [(1 << a) | (1 << b) for a, b in combinations(range(s - 1), 2)]
    extras = 0
    for w in range(s_prime, s - 1):
        extras |= 1 << w
    n_pairs = len(pairs)
    for dbits in range(1, 1 << n_pairs):
        cover = 0
        chosen = []
        bits = dbits
        idx = 0
        while bits:
            if bits & 1:
                cover |= pairs[idx]
                chosen.append(pairs[idx] | v_bit)
            bits >>= 1
            idx += 1
        if cover & extras != extras:
            continue
        candidate = tuple(sorted(xprime + tuple(chosen)))
        if all(
            _hereditary_star_shellable(_star_removed(candidate, u))
            for u in range(s - 1)
        ):
            yield candidate


def unpruned_scan_level(
    hereditary_by_support: dict[int, list[tuple[int, ...]]], s: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """One support level of the core search, attaching every possible vertex star.

    Returns (new hereditary classes, new cores), unsorted.  The reference for
    the minimum-degree pruning of ``enumeration._scan_level``.
    """
    seen: set[CanonicalForm] = set()
    hereditary: list[tuple[int, ...]] = []
    cores: list[tuple[int, ...]] = []
    sources: list[tuple[int, ...]] = [()]
    for s_prime in sorted(hereditary_by_support):
        if 0 < s_prime <= s - 1:
            sources.extend(hereditary_by_support[s_prime])
    for xprime in sources:
        for candidate in unpruned_attachment_scan(xprime, s):
            c = from_facets(candidate)
            key = c.canonical_form()
            if key in seen:
                continue
            seen.add(key)
            rep = key.facets
            if is_shellable(from_facets(rep)).shellable:
                # shellable + the per-vertex filter already implies hereditary
                if not _hereditary_star_shellable(rep):
                    raise RuntimeError("shellable class failed the hereditary star filter")
                hereditary.append(rep)
            else:
                cores.append(rep)
    return hereditary, cores


def naive_exact_cover_assignment(c: SimplicialComplex) -> Optional[tuple[tuple[int, int], ...]]:
    """Deterministic fewest-candidates-first exact cover over interval rows.

    The reference for ``partition._exact_cover_assignment``: the same item
    choice and row order, but choosing a row tests every row of every open
    item for a shared item, instead of removing only the rows in the buckets
    it closes.  It also keeps an item ("s", idx) per facet, which always has
    the same rows as the facet's own face item and sorts after it.
    """
    face_items = {("f", m) for m in c.faces()}
    items: dict[object, set] = {it: set() for it in face_items}
    for idx in range(len(c.facets)):
        items[("s", idx)] = set()
    rows: dict[tuple[int, int], list] = {}
    for idx, sigma in enumerate(c.facets):
        for tau in subsets_of(sigma):
            covered = [("s", idx)]
            lower = sigma & ~tau
            for extra in subsets_of(lower):
                covered.append(("f", tau | extra))
            key = (sigma, tau)
            rows[key] = covered
            for it in covered:
                items[it].add(key)

    solution: list[tuple[int, int]] = []

    def solve() -> bool:
        if not items:
            return True
        item = min(items, key=lambda it: (len(items[it]), it))
        if not items[item]:
            return False
        for row_key in sorted(items[item]):
            touched = rows[row_key]
            saved = {it: items.pop(it) for it in touched}
            pruned: list[tuple[object, tuple[int, int]]] = []
            for it, bucket in items.items():
                dead = [other for other in bucket if any(it2 in saved for it2 in rows[other])]
                for other in dead:
                    bucket.remove(other)
                    pruned.append((it, other))
            solution.append(row_key)
            if solve():
                return True
            solution.pop()
            for it, other in pruned:
                items[it].add(other)
            items.update(saved)
        return False

    if solve():
        return tuple(sorted(solution))
    return None


@dataclass(frozen=True)
class BoundaryMatrix:
    """The boundary map from k-chains to (k-1)-chains in sorted-mask bases."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Augmented boundary matrix; k = 0 maps vertices onto the empty face.

    The dense reference for the sparse rows of ``homology._homology_groups``:
    the matrix homology built before it read ∂_k's transpose straight from
    the faces, kept verbatim.
    """
    if k < -1:
        raise ValueError("boundary is defined for k >= -1")
    rows = tuple(c.faces_of_dim(k - 1))
    cols = tuple(c.faces_of_dim(k))
    index = {m: i for i, m in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, col_face in enumerate(cols):
        verts = face_vertices(col_face)
        for pos, v in enumerate(verts):
            sub = col_face ^ (1 << v)
            entries[index[sub]][j] = -1 if pos % 2 else 1
    return BoundaryMatrix(rows, cols, tuple(tuple(r) for r in entries))


def dense_smith_normal_form(matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, plus its rank.

    The reference for ``homology.smith_normal_form``: the dense reduction it
    used before unit pivots, kept verbatim.  The package holds no copy of it;
    its one sparse loop pivots on units first and on least magnitudes after.

    Accepts any rectangular sequence of int rows (a BoundaryMatrix's entries
    included).  Pure row/column reduction with a least-magnitude pivot rule;
    the divisibility chain is enforced before each pivot is frozen.
    """
    m = [list(map(int, row)) for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    if any(len(row) != n_cols for row in m):
        raise ValueError("ragged matrix")

    divisors: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        best = None
        best_abs = 0
        for i in range(t, n_rows):
            row = m[i]
            for j in range(t, n_cols):
                v = row[j]
                if v and (best is None or -best_abs < v < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]

        while True:
            for i in range(n_rows):
                if i != t and m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        mi, mt = m[i], m[t]
                        for j in range(t, n_cols):
                            mi[j] -= q * mt[j]
            pending = next((i for i in range(n_rows) if i != t and m[i][t]), None)
            if pending is not None:
                m[t], m[pending] = m[pending], m[t]
                continue

            for j in range(t + 1, n_cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for i in range(t, n_rows):
                            m[i][j] -= q * m[i][t]
            pending = next((j for j in range(t + 1, n_cols) if m[t][j]), None)
            if pending is not None:
                for i in range(t, n_rows):
                    m[i][t], m[i][pending] = m[i][pending], m[i][t]
                continue

            offender = None
            pivot = m[t][t]
            for i in range(t + 1, n_rows):
                row = m[i]
                for j in range(t + 1, n_cols):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mo, mt = m[offender], m[t]
            for j in range(t, n_cols):
                mt[j] += mo[j]

        divisors.append(abs(m[t][t]))
        t += 1

    return divisors, len(divisors)


def euler_characteristic(c: SimplicialComplex) -> int:
    """Reduced Euler characteristic: alternating face-count sum, empty face at -1."""
    total = 0
    sign = -1
    for count in c.f_vector():
        total += sign * count
        sign = -sign
    return total



def homology_group_by_degree(c: SimplicialComplex, k: int) -> HomologyGroup:
    """The k-th reduced homology group, computed for that degree alone.

    The reference for ``homology.reduced_homology``: the per-degree
    computation it used before each boundary map was reduced once per
    complex, kept verbatim.  It reduces ∂_k for a rank and ∂_{k+1} for a
    rank and torsion, ∂_0 and ∂_1 included and cones too, so a scan over
    degrees reduces every inner map twice.
    """
    n_k = len(c.faces_of_dim(k))
    if k == -1:
        rank_k = 0
    else:
        _, rank_k = smith_normal_form(boundary_matrix(c, k).entries)
    factors_up, rank_up = smith_normal_form(boundary_matrix(c, k + 1).entries)
    betti = n_k - rank_k - rank_up
    torsion = tuple(d for d in factors_up if d > 1)
    return HomologyGroup(betti, torsion)


def full_scan_witness(rep: SimplicialComplex) -> Optional[CMWitness]:
    """The first face whose link has a nonvanishing group below its top.

    The reference for ``cohen_macaulay._find_witness`` at the top skeleton
    of a pure complex: the scan it ran before it skipped the faces whose
    links have no degree to check and read the graph links' H̃_0 from their
    facets, kept
    verbatim except that homology comes from ``homology_group_by_degree``.
    It builds the link of every face.
    """
    faces = all_faces(rep)
    if rep.strongly_connected():
        # links of large faces are small; scanning them first keeps the
        # homology cache hot and fails fast on deep defects
        faces.reverse()
    for tau in faces:
        link = rep.link(tau)
        for k in range(0, link.dim):
            group = homology_group_by_degree(link, k)
            if not group.is_trivial():
                return CMWitness(tau, k, group)
    return None


def pure_skeletons_cm_by_scan(c: SimplicialComplex) -> CMReport:
    """The reference for ``cohen_macaulay._pure_skeletons_cm``: every pure
    skeleton, 0 and 1 included, built and scanned through
    ``is_cohen_macaulay``, lowest first, as before each skeleton was read
    from the facets with enough vertices."""
    for i in range(0, c.dim + 1):
        report = is_cohen_macaulay(c.pure_skeleton(i))
        if not report.verdict:
            return CMReport(False, report.witness._replace(skeleton_dim=i))
    return CMReport(True)


def _ranks(sigs: list) -> list[int]:
    rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs]


def tuple_refine_colors(
    n: int, facet_bits: list[tuple[int, ...]], colors: list[int] | None = None
) -> list[int]:
    """Iterated colour refinement over the vertex-facet incidence structure.

    The reference for ``complexes._refine_colors``: each signature lists, for
    every incident facet, its size and its sorted colours less one copy of
    the vertex's own, and every round is confirmed by one that splits nothing.

    Starts from ``colors`` (ranks 0..k-1) or, by default, from the multiset of
    incident facet sizes.  Each round ranks the signatures (own colour, the
    sizes and neighbour colours of the incident facets), so cells only ever
    split and the result is an isomorphism invariant of the start.
    """
    sizes = [len(b) for b in facet_bits]
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, bits in enumerate(facet_bits):
        for v in bits:
            incident[v].append(idx)
    if colors is None:
        colors = _ranks([tuple(sorted(sizes[i] for i in incident[v])) for v in range(n)])
    while True:
        # v sees in a facet the facet's sorted colours less one copy of its own
        facet_colors = [sorted([colors[w] for w in bits]) for bits in facet_bits]
        sigs = []
        for v in range(n):
            c = colors[v]
            local = []
            for i in incident[v]:
                others = facet_colors[i][:]
                others.remove(c)
                local.append((sizes[i], tuple(others)))
            local.sort()
            sigs.append((c, tuple(local)))
        new_colors = _ranks(sigs)
        if new_colors == colors:
            return colors
        colors = new_colors


def minimal_nonfaces(c: SimplicialComplex) -> list[int]:
    """Vertex sets that are not faces but all of whose proper subsets are."""
    faces = c.faces()
    verts = face_vertices(c.vertices)
    out = []
    for size in range(2, len(verts) + 1):
        for combo in combinations(verts, size):
            m = 0
            for v in combo:
                m |= 1 << v
            if m in faces:
                continue
            if all((m ^ (1 << v)) in faces for v in combo):
                out.append(m)
    return out


def is_flag(c: SimplicialComplex) -> tuple[bool, tuple[int, ...]]:
    """Flag test; returns the minimal nonfaces of size > 2 as counterexamples."""
    offenders = tuple(m for m in minimal_nonfaces(c) if m.bit_count() != 2)
    return not offenders, offenders


def non_edge_graph(c: SimplicialComplex) -> Graph:
    """Graph joining the vertex pairs that are not faces of the complex.

    A complex is flag exactly when it is the independence complex of this
    graph; see flag_round_trip.
    """
    verts = face_vertices(c.vertices)
    index = {v: i for i, v in enumerate(verts)}
    faces = c.faces()
    edges = []
    for a, b in combinations(verts, 2):
        if (1 << a) | (1 << b) not in faces:
            edges.append((index[a], index[b]))
    return graph_from_edges(len(verts), edges)


def flag_round_trip(c: SimplicialComplex) -> bool:
    """True iff rebuilding from the non-edge graph reproduces the complex."""
    rebuilt = independence_complex(non_edge_graph(c))
    verts = face_vertices(c.vertices)
    mapping = {i: v for i, v in enumerate(verts)}
    return relabel(rebuilt, mapping) == c
