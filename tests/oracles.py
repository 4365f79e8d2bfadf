"""Independent reference implementations that the tests compare the library against.

None of these is part of the package: each restates a definition or a
characterisation directly, without the fast paths, prescreens or memo tables
of the deciders it checks.
"""

from itertools import combinations

from shellability.complexes import DimensionError, SimplicialComplex, face_vertices
from shellability.obstruction import _proper_subsets_desc, obstruction_report
from shellability.properties import PropertyKind, satisfies
from shellability.shelling import ShellingDecision, _certificate, _search_ordering, is_shellable


def shellable_by_search(c: SimplicialComplex) -> ShellingDecision:
    """Plain backtracking decision with no fast paths, prescreens or caching.

    Exists so the structural shortcuts can be validated against the generic
    search; prefer is_shellable everywhere else.
    """
    ordering = _search_ordering(c)
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
