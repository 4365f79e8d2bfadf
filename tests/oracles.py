"""Independent reference implementations that the tests compare the library against.

None of these is part of the package: each restates a definition or a
characterisation directly, without the fast paths, prescreens or memo tables
of the deciders it checks.
"""

from itertools import combinations, permutations
from typing import Optional

from shellability import cache
from shellability.complexes import (
    CanonicalForm,
    CapacityError,
    DimensionError,
    SimplicialComplex,
    all_faces,
    face_vertices,
    from_facets,
    subsets_of,
    union,
)
from shellability.enumeration import (
    _exact_classes,
    _grow_classes,
    _non_face_pairs,
    _sort_key,
)
from shellability.obstruction import ObstructionReport, _proper_subsets_desc, obstruction_report
from shellability.properties import PropertyKind, satisfies
from shellability.shelling import ShellingDecision, _certificate, is_shellable


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
    """Compare the dimension <= 2 criteria against the raw search (test support)."""
    if c.dim > 2:
        raise DimensionError("fast paths only exist for dimension <= 2")
    return is_shellable(c).shellable == shellable_by_search(c).shellable


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
        classes.extend(_grow_classes(t, n, _non_face_pairs))
    return _exact_classes(classes, n, True)


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


def dense_smith_normal_form(matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, plus its rank.

    The reference for ``homology.smith_normal_form``: the dense reduction it
    used before unit pivots, kept verbatim.

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
