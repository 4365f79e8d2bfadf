"""Shellability of (possibly nonpure) complexes, with verifiable certificates.

A facet ordering is a shelling when every facet after the first meets the
union of the earlier ones in a pure subcomplex of codimension one.  The
equivalent working criterion used throughout is the restriction map

    R(F_i) = {v in F_i : F_i - v lies in the union of the earlier facets},

under which an ordering is a shelling iff no R(F_i) is contained in an
earlier facet.  Both formulations are implemented and verified against each
other once per decision: the decider memoizes each decision with its
certificate.

The decision procedure backtracks over dimension-nonincreasing orderings
only; a shellable complex always admits such a shelling (the rearrangement
property of shellings), so the restricted search is still exact.  It records
the sets of placed facets that fail to extend, so it visits each set at most
once.  Partitionability and sequential Cohen-Macaulayness ask this decider
first, since a shelling proves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import cache
from .complexes import (
    SimplicialComplex, _edge_classes, face_vertices, subsets_of, union,
)
from .homology import reduced_homology

_DECIDE_CACHE = cache.new_cache()


@dataclass(frozen=True)
class ShellingCertificate:
    """A shelling order together with its restriction sets, independently re-checkable."""

    ordering: tuple[int, ...]
    restriction_sets: tuple[int, ...]


@dataclass(frozen=True)
class ShellingDecision:
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


def _homology_prescreen_nonshellable(c: SimplicialComplex) -> bool:
    """True when homology already rules shellability out.

    A pure shellable complex has vanishing reduced homology below its
    dimension, and every pure skeleton of a shellable complex is shellable;
    so a nontrivial low group of any pure skeleton is a certificate of
    nonshellability.
    """
    if c.is_pure():
        return any(not reduced_homology(c, k).is_trivial() for k in range(0, c.dim))
    # H̃_0 of the pure 1-skeleton is Z^(k-1) for k classes of edges
    if _edge_classes(c.facets) > 1:
        return True
    for i in range(2, c.dim + 1):
        skel = c.pure_skeleton(i)
        if any(not reduced_homology(skel, k).is_trivial() for k in range(0, i)):
            return True
    return False


def _attach_order(seen: int, edge_facets: list[int]) -> Optional[list[int]]:
    """Order edge facets so each one touches the part already seen."""
    remaining = sorted(edge_facets)
    out: list[int] = []
    while remaining:
        pick = next((e for e in remaining if e & seen), None)
        if pick is None:
            if seen == 0:
                pick = remaining[0]
            else:
                return None
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
    d = c.dim
    if d <= 0:
        return ShellingDecision(True, _certificate(c, c.facets))

    if d <= 2 and c.facets[0].bit_count() <= 2:
        # the 1-skeleton is connected when the facets with an edge form one
        # class, and the pure 2-skeleton is the 3-vertex facets
        if _edge_classes(c.facets) != 1:
            return ShellingDecision(False)
        triangles = tuple(f for f in c.facets if f.bit_count() == 3)
        top = ()
        if triangles:
            skeleton = is_shellable(SimplicialComplex(triangles, union(triangles))).certificate
            if skeleton is None:
                return ShellingDecision(False)
            top = skeleton.ordering
        edges = [f for f in c.facets if f.bit_count() == 2]
        tail = _attach_order(union(top), edges)
        if tail is None:
            raise RuntimeError("edge facets detached despite connected 1-skeleton")
        isolated = sorted(f for f in c.facets if f.bit_count() == 1)
        return ShellingDecision(True, _certificate(c, [*top, *tail, *isolated]))

    if (c.is_pure() and not c.strongly_connected()) or _homology_prescreen_nonshellable(c):
        return ShellingDecision(False)
    ordering = _search_ordering(c)
    if ordering is None:
        return ShellingDecision(False)
    return ShellingDecision(True, _certificate(c, ordering))


def is_shellable(c: SimplicialComplex) -> ShellingDecision:
    """Exact decision; ships a verified shelling order whenever the answer is yes.

    Memoized on the facets, so the order is verified once.  Low dimensions
    use structural criteria: everything of dimension <= 0 is shellable; a 1-
    or 2-dimensional complex with an edge or vertex facet is shellable iff
    the subcomplex generated by its edges is connected and its pure
    2-skeleton, decided through this memo, is shellable.  Every other
    complex, a pure 2-complex included, goes through strong connectivity
    (when pure), the homology prescreen and the search.
    """
    return cache.memo(_DECIDE_CACHE, c.facets, _decide, c)
