"""Partitionability: tiling the face set by intervals, one per facet.

A complex is partitionable when its faces split into disjoint intervals
[tau_sigma, sigma], one for each facet sigma.  A shelling gives one: its
restriction intervals [R(F_i), F_i] partition the faces (Björner & Wachs,
"Shellable nonpure complexes and posets I", 1996).  So the decision asks
``is_shellable`` first and, when there is a shelling, returns its intervals
sorted by facet, checked by ``verify_partition``.  This covers every complex
of dimension 0, which is always shellable.  Otherwise it runs an exact-cover
search (items: every face; rows: the candidate intervals), preceded by cheap
filters:

* a 1-dimensional complex partitions iff at most one connected component of
  its edge part is a tree, so the negative answer is structural, and a
  positive one still runs the exact cover to get its certificate,
* a pure complex whose h-vector has a negative entry is not partitionable:
  in a partition of a pure complex, h_j counts the intervals whose bottom
  has j vertices (R. P. Stanley, "Combinatorics and Commutative Algebra",
  §III.2).  For a nonpure complex the same formula counts nothing, so the
  filter is not run there,
* two facets of dimension >= 1 whose codimension-one subfaces are all
  private force tau = empty twice, which is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping, Optional

from . import cache
from .complexes import (
    CapacityError,
    SimplicialComplex,
    components,
    from_facets,
    subsets_of,
)
from .shelling import is_shellable

_PARTITION_CACHE = cache.new_cache()


@dataclass(frozen=True)
class PartitionCertificate:
    """facet -> interval bottom, as (facet, bottom) pairs sorted by facet."""

    assignment: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PartitionDecision:
    partitionable: bool
    certificate: Optional[PartitionCertificate] = None


def verify_partition(c: SimplicialComplex, assignment) -> bool:
    """True iff the facet -> bottom assignment tiles the face set exactly."""
    listed = list(assignment.items() if isinstance(assignment, Mapping) else assignment)
    pairs = dict(listed)
    if len(pairs) != len(listed):
        raise ValueError("assignment names a facet more than once")
    facets = set(c.facets)
    if set(pairs) != facets:
        raise ValueError("assignment keys must be exactly the facets")
    for sigma, tau in pairs.items():
        if tau & ~sigma:
            raise ValueError("interval bottom must be a subset of its facet")
    seen: set[int] = set()
    for sigma, tau in pairs.items():
        lower = sigma & ~tau
        for extra in subsets_of(lower):
            eta = tau | extra
            if eta in seen:
                return False
            seen.add(eta)
    return seen == c.faces()


def _h_vector(c: SimplicialComplex) -> list[int]:
    """h_k = sum over i <= k of (-1)^(k-i) C(d-i, k-i) f_(i-1), d the top facet size."""
    f = c.f_vector()
    d = len(f) - 1
    return [
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    ]


def _two_private_facets(c: SimplicialComplex) -> bool:
    """Two facets of dimension >= 1 whose codim-1 subfaces all lie in no other facet."""
    hits = 0
    for sigma in c.facets:
        if sigma.bit_count() < 2:
            continue
        others = [f for f in c.facets if f != sigma]
        private = True
        m = sigma
        while m:
            low = m & -m
            sub = sigma ^ low
            if any(sub & ~other == 0 for other in others):
                private = False
                break
            m ^= low
        if private:
            hits += 1
            if hits >= 2:
                return True
    return False


def _tree_components_of_edge_part(c: SimplicialComplex) -> int:
    """Number of connected components of the edge-generated part that are trees."""
    edges = c.faces_of_dim(1)
    return sum(
        1 for comp in components(edges)
        if sum(1 for e in edges if e & comp) == comp.bit_count() - 1
    )


def _exact_cover_assignment(c: SimplicialComplex) -> Optional[tuple[tuple[int, int], ...]]:
    """Deterministic fewest-candidates-first exact cover over interval rows.

    Items are the faces; the rows of facet sigma are its intervals
    [tau, sigma], keyed (sigma, tau).  No item per facet is needed: the only
    intervals that contain a facet are its own, since no other facet contains
    it, and each of them does.  So covering the face sigma exactly once
    chooses exactly one interval of sigma.  ``items`` maps each open item to
    the rows still compatible with the partial solution.
    The search is Knuth's Algorithm X (D. E. Knuth, "Dancing Links",
    arXiv cs/0011047): it branches on the open item with the fewest rows
    (ties broken by the item), tries those rows in sorted order, and on
    choosing a row closes the items it covers.  The rows that conflict with
    the choice are exactly the rows in the buckets just closed, so only those
    are taken out of the buckets still open, and each removal is recorded so
    that backtracking puts it back.
    """
    items: dict[int, set] = {m: set() for m in c.faces()}
    rows: dict[tuple[int, int], list] = {}
    for sigma in c.facets:
        for tau in subsets_of(sigma):
            covered = [tau | extra for extra in subsets_of(sigma & ~tau)]
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
            saved = {it: items.pop(it) for it in rows[row_key]}
            pruned: list[tuple[int, tuple[int, int]]] = []
            for other in set().union(*saved.values()):
                for it in rows[other]:
                    bucket = items.get(it)
                    if bucket is not None:
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


def _decide_partition(c: SimplicialComplex) -> Optional[tuple[tuple[int, int], ...]]:
    """The filters, then the exact cover; None when no partition exists."""
    if c.is_pure() and min(_h_vector(c)) < 0:
        return None
    if c.dim >= 2 and _two_private_facets(c):
        return None
    return _exact_cover_assignment(c)


def _decide_with_shelling(c: SimplicialComplex) -> PartitionDecision:
    """``is_partitionable`` on a memo miss: a shelling's intervals, else the
    dimension-1 tree test and ``_decide_partition``."""
    shelling = is_shellable(c).certificate
    if shelling is not None:
        assignment = tuple(sorted(zip(shelling.ordering, shelling.restriction_sets)))
        if not verify_partition(c, assignment):
            raise RuntimeError("shelling intervals do not partition the faces")
        return PartitionDecision(True, PartitionCertificate(assignment))
    if c.dim == 1 and _tree_components_of_edge_part(c) > 1:
        return PartitionDecision(False)
    assignment = _decide_partition(c)
    if assignment is None:
        return PartitionDecision(False)
    return PartitionDecision(True, PartitionCertificate(assignment))


def is_partitionable(c: SimplicialComplex) -> PartitionDecision:
    """Exact decision with a re-checkable interval assignment on success."""
    return cache.memo(_PARTITION_CACHE, c.facets, _decide_with_shelling, c)


def band_complex(d: int, n: int) -> SimplicialComplex:
    """The cyclic band: facets {v_k, ..., v_{k+d}} with indices mod n.

    Requires n >= 2d + 1 so that consecutive facets overlap in exactly d
    vertices and the boundary structure does not degenerate.  For d = 2 these
    are the triangulated cylinders and Moebius bands.
    """
    if d < 1:
        raise ValueError("band dimension must be at least 1")
    if n < 2 * d + 1:
        raise ValueError(f"band on {n} vertices needs n >= {2 * d + 1}")
    if n > 64:
        raise CapacityError("at most 64 vertices")
    facets = []
    for k in range(n):
        m = 0
        for j in range(d + 1):
            m |= 1 << ((k + j) % n)
        facets.append(m)
    return from_facets(facets)
