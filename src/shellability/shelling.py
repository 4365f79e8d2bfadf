"""Shellability of (possibly nonpure) complexes, with verifiable certificates.

A facet ordering is a shelling when every facet after the first meets the
union of the earlier ones in a pure subcomplex of codimension one.  The
equivalent working criterion used throughout is the restriction map

    R(F_i) = {v in F_i : F_i - v lies in the union of the earlier facets},

under which an ordering is a shelling iff no R(F_i) is contained in an
earlier facet.  Both formulations are implemented and verified against each
other once per decision: the decider memoizes each decision with its
certificate.

By the rearrangement lemma (Björner and Wachs, "Shellable nonpure complexes
and posets I", Trans. AMS 1996), a shellable complex has a shelling in order
of nonincreasing dimension.  Its facets with at least three vertices come
first and shell Δ_{≥2}, the subcomplex they generate; an edge facet then
attaches exactly when it meets what came before, and a vertex facet always
does.  So a complex with a facet of at most two vertices, in any dimension,
is shellable exactly when its facets with an edge form one class under
shared vertices and Δ_{≥2} is empty or shellable.  Every other complex is
prescreened, then searched over dimension-nonincreasing orderings only,
which the same lemma keeps exact; the search records the sets of placed
facets that fail to extend, so it visits each set at most once.
Partitionability and sequential Cohen-Macaulayness ask this decider first,
since a shelling proves both.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import cache
from .complexes import (
    SimplicialComplex, _one_class, _upper, components, face_vertices, subsets_of, union,
)
from .homology import reduced_homology

_DECIDE_CACHE = cache.new_cache()


class ShellingCertificate(NamedTuple):
    """A shelling order together with its restriction sets, independently re-checkable."""

    ordering: tuple[int, ...]
    restriction_sets: tuple[int, ...]


class ShellingDecision(NamedTuple):
    shellable: bool
    certificate: Optional[ShellingCertificate] = None


def _restriction_map_check(ordering) -> tuple[bool, Optional[tuple[int, ...]]]:
    covered: set[int] = set()
    restrictions: list[int] = []
    for fct in ordering:
        r = 0
        for v in face_vertices(fct):
            if fct ^ (1 << v) in covered:
                r |= 1 << v
        if r in covered:
            # r sits inside an earlier facet: the ordering is not a shelling
            return False, None
        restrictions.append(r)
        covered.update(subsets_of(fct))
    return True, tuple(restrictions)


def _definitional_check(ordering) -> bool:
    for j in range(1, len(ordering)):
        fct = ordering[j]
        intersections = {fct & earlier for earlier in ordering[:j]}
        maximal = [
            m for m in intersections
            if not any(m != other and m & ~other == 0 for other in intersections)
        ]
        want = fct.bit_count() - 1
        if any(m.bit_count() != want for m in maximal):
            return False
    return True


def verify_shelling(c: SimplicialComplex, ordering) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check a facet ordering; returns (is_shelling, restriction sets or None).

    Raises ValueError unless the ordering is a permutation of the facets.
    Runs the restriction-map criterion and the direct definition; the two are
    equivalent, so any disagreement is an internal error.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(c.facets):
        raise ValueError("ordering is not a permutation of the facets")
    ok, restrictions = _restriction_map_check(ordering)
    if ok != _definitional_check(ordering):
        raise RuntimeError("shelling criteria disagree")
    return ok, restrictions


def _search_ordering(c: SimplicialComplex) -> Optional[tuple[int, ...]]:
    """Exact backtracking search for a shelling, nonincreasing dimensions only.

    Whether a prefix extends to a shelling depends only on the set of facets
    placed, not on their order: the covered faces, the candidates and their
    restriction sets are all functions of that set.  So every placed set that
    fails to extend (a bitmask of facet indices) is recorded, and a later
    prefix that places the same facets is abandoned at once.  The search
    tries the same prefixes in the same order and returns the same first
    shelling as without the record, but visits at most 2^m placed sets
    instead of up to m! orderings of m facets.
    """
    facets = sorted(c.facets, key=lambda m: (-m.bit_count(), m))
    total = len(facets)
    chosen: list[int] = []
    covered: set[int] = set()
    failed: set[int] = set()

    def extend(placed: int) -> bool:
        if len(chosen) == total:
            return True
        if placed in failed:
            return False
        max_size = max(facets[i].bit_count() for i in range(total) if not placed >> i & 1)
        candidates = []
        for i in range(total):
            if placed >> i & 1 or facets[i].bit_count() != max_size:
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
            chosen.append(fct)
            added = [s for s in subsets_of(fct) if s not in covered]
            covered.update(added)
            if extend(placed | 1 << i):
                return True
            for s in added:
                covered.remove(s)
            chosen.pop()
        failed.add(placed)
        return False

    return tuple(chosen) if extend(0) else None


def _skeleton_prescreen_nonshellable(c: SimplicialComplex) -> bool:
    """True when a pure skeleton already rules shellability out.

    Every pure skeleton of a shellable complex is shellable, so strongly
    connected and acyclic below its top; a pure i-skeleton that is not is a
    certificate of nonshellability.  No skeleton is built: the pure
    i-skeleton is the i-skeleton of Δ_{≥i}, the subcomplex generated by the
    facets with at least i + 1 vertices.  It is strongly connected exactly
    when those facets form one class at i shared vertices, and its groups
    below degree i are those of Δ_{≥i}, which is the complex itself when it
    is pure.
    """
    # when no facet has i + 1 vertices, Δ_{≥i} = Δ_{≥i+1}, and the checks at
    # i + 1 cover those at i; so only the facet dimensions are checked
    for i in sorted({f.bit_count() - 1 for f in c.facets}):
        upper = _upper(c, i)
        if not _one_class(upper.facets, i):
            return True
        if any(not reduced_homology(upper, k).is_trivial() for k in range(i)):
            return True
    return False


def _attach_order(seen: int, edge_facets: list[int]) -> list[int]:
    """Order edge facets so each one touches the part already seen, the
    least first when none is seen; they all do when they form one class
    with that part."""
    remaining = sorted(edge_facets)
    out: list[int] = []
    while remaining:
        pick = next((e for e in remaining if e & seen), remaining[0])
        remaining.remove(pick)
        out.append(pick)
        seen |= pick
    return out


def _certificate(c: SimplicialComplex, ordering) -> ShellingCertificate:
    ok, restrictions = verify_shelling(c, ordering)
    if not ok:
        raise RuntimeError("constructed ordering failed verification")
    return ShellingCertificate(tuple(ordering), restrictions)


def _decide(c: SimplicialComplex) -> ShellingDecision:
    """``is_shellable`` on a memo miss: the order is found, then verified."""
    if c.facets[0].bit_count() > 2:
        if _skeleton_prescreen_nonshellable(c):
            return ShellingDecision(False)
        ordering = _search_ordering(c)
        if ordering is None:
            return ShellingDecision(False)
        return ShellingDecision(True, _certificate(c, ordering))

    # a facet with at most two vertices: the rule of the module docstring
    if len(components(f for f in c.facets if f.bit_count() >= 2)) > 1:
        return ShellingDecision(False)
    top = tuple(f for f in c.facets if f.bit_count() > 2)
    if top:
        skeleton = is_shellable(SimplicialComplex(top)).certificate
        if skeleton is None:
            return ShellingDecision(False)
        top = skeleton.ordering
    tail = _attach_order(union(top), [f for f in c.facets if f.bit_count() == 2])
    low = [f for f in c.facets if f.bit_count() <= 1]
    return ShellingDecision(True, _certificate(c, [*top, *tail, *low]))


def is_shellable(c: SimplicialComplex) -> ShellingDecision:
    """Exact decision; ships a verified shelling order whenever the answer is yes.

    Memoized on the facets, so the order is verified once.  By the
    rearrangement lemma, a complex with a facet of at most two vertices is
    shellable iff its facets with an edge form one class and Δ_{≥2}, the
    subcomplex generated by its facets with at least three vertices, is
    empty or shellable, decided through this memo; the order shells Δ_{≥2},
    then attaches the edge facets, then the vertex facets.  Every other
    complex goes through the skeleton prescreen and the search.
    """
    return cache.memo(_DECIDE_CACHE, c.facets, _decide, c)
