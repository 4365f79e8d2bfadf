"""Obstructions, strong obstructions, and hereditary properties.

An obstruction to a property is a complex that fails the property while every
proper restriction satisfies it: the excluded minors of "hereditary" under
vertex restriction.  A strong obstruction additionally has every link of a
nonempty face satisfy the property, which makes strong obstructions the
excluded minors under restriction and link jointly.

For link-preserving properties (all three here) the strong-obstruction
condition collapses to three separate checks; the test suite checks the
collapse against the literal product-form definition instead of assuming it.
The link check reads the vertex links only: the link of a face tau is the
link of tau - v inside the link of any vertex v of tau, so when the link of
a vertex satisfies the property, so does the link of every face through it.

Whether every proper restriction satisfies a property is decided by
recursion over isomorphism classes rather than over the 2^n - 1 proper
vertex subsets: ``_hereditary(c)`` holds when ``c`` satisfies the property
and so does, hereditarily, every vertex deletion ``c - v``.  This is exact:
every proper restriction lies inside some ``c - v``, a restriction of a
restriction is a restriction, and isomorphic complexes have isomorphic
restrictions, so the verdict memoized on a canonical form holds for every
labeling of it.  Each class is decided once per property, however many
complexes and labelings reach it.  This is the package's one decision memo
keyed on classes: the deciders themselves memoize on raw facets, and
above one vertex past the labeling cap they alone serve the subset scan.
When some restriction fails, the largest-first subset scan still names the
failing one, so the reported restriction does not depend on the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import cache
from .complexes import CANONICAL_VERTEX_CAP, CanonicalForm, SimplicialComplex, face_vertices
from .properties import PropertyKind, satisfies

_HEREDITARY_CACHE = cache.new_cache()


@dataclass(frozen=True)
class ObstructionReport:
    is_obstruction: bool
    is_strong: bool
    failing_restriction: Optional[int] = None  # W with the restriction failing the property
    failing_link: Optional[int] = None         # the first vertex whose link fails it, as a face


def _proper_subsets_desc(vertex_mask: int):
    """Proper subsets of the vertex set, largest first (deterministic)."""
    verts = face_vertices(vertex_mask)
    for drop in range(1, len(verts) + 1):
        for removed in combinations(verts, drop):
            w = vertex_mask
            for v in removed:
                w ^= 1 << v
            yield w


def _hereditary(c: SimplicialComplex, prop: PropertyKind) -> bool:
    """Whether every restriction of the complex, itself included, satisfies the property.

    Memoized on the isomorphism class of ``c`` and decided on the class's
    canonical representative, so every labeling of a class, and every
    property asked of it, reaches the deciders with the same facets.  The
    callers stay within ``CANONICAL_VERTEX_CAP`` vertices; above it
    ``canonical_form`` raises ``CapacityError``.
    """
    canon = c.canonical_form()
    return cache.memo(_HEREDITARY_CACHE, (canon, prop), _decide_hereditary, canon, prop)


def _decide_hereditary(canon: CanonicalForm, prop: PropertyKind) -> bool:
    c = SimplicialComplex(canon.facets, (1 << canon.n_vertices) - 1)
    return satisfies(c, prop) and _deletions_hereditary(c, prop)


def _deletions_hereditary(c: SimplicialComplex, prop: PropertyKind) -> bool:
    return all(_hereditary(c.deletion(1 << v), prop) for v in face_vertices(c.vertices))


def _failing_restriction(c: SimplicialComplex, prop: PropertyKind) -> Optional[int]:
    """The first proper restriction, largest first, that fails the property.

    Up to one vertex above the labeling cap, every vertex deletion is
    memoized on its isomorphism class, so the class recursion answers first
    and the subset scan runs only to name a restriction that is known to
    fail.  This is the package's one boundary at the cap.  Above it the
    plain scan runs alone, and the deciders' own raw-facet memos decide
    each restriction: the class recursion labels every deletion, and it is
    depth-first, so a failing deletion can wait behind the whole subtree of
    an earlier deletion that passes, while the largest-first scan tries
    every deletion first.
    """
    if c.n_vertices <= CANONICAL_VERTEX_CAP + 1 and _deletions_hereditary(c, prop):
        return None
    for w in _proper_subsets_desc(c.vertices):
        if not satisfies(c.restriction(w), prop):
            return w
    return None


def obstruction_report(c: SimplicialComplex, prop: PropertyKind) -> ObstructionReport:
    """Full obstruction/strong-obstruction report for one complex."""
    if satisfies(c, prop):
        return ObstructionReport(False, False)
    w = _failing_restriction(c, prop)
    if w is not None:
        return ObstructionReport(False, False, failing_restriction=w)
    # an obstruction; strong iff every vertex link satisfies the property,
    # which then holds for the link of every nonempty face
    for v in face_vertices(c.vertices):
        if not satisfies(c.link(1 << v), prop):
            return ObstructionReport(True, False, failing_link=1 << v)
    return ObstructionReport(True, True)


def is_hereditary(c: SimplicialComplex, prop: PropertyKind) -> tuple[bool, Optional[int]]:
    """Whether every restriction (the complex included) satisfies the property."""
    if not satisfies(c, prop):
        return False, c.vertices
    w = _failing_restriction(c, prop)
    return w is None, w

