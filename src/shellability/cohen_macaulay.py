"""Cohen-Macaulayness over the integers, via vanishing link homology.

A pure complex is Cohen-Macaulay when every link (the link of the empty face
is the complex itself) has reduced homology concentrated in its top
dimension.  A general complex is sequentially Cohen-Macaulay when all of its
pure skeletons are Cohen-Macaulay.  Both deciders return an explicit witness
on failure: a face whose link has a nonvanishing group below top dimension.

A shellable complex is sequentially Cohen-Macaulay: each of its pure
skeletons is shellable (Björner & Wachs, "Shellable nonpure complexes and
posets I", 1996), and a pure shellable complex is Cohen-Macaulay.  So
``is_sequentially_cm`` asks ``is_shellable`` first and answers yes without
homology when there is a shelling; only the other complexes go through the
pure-skeleton link scan, ``_pure_skeletons_cm``, which finds every witness.

No pure skeleton is built.  The pure i-skeleton Δ^[i] is the i-skeleton of
Δ_{≥i}, the subcomplex generated by the facets with at least i + 1
vertices, and the link of a face τ in Δ^[i] is the (i − |τ|)-skeleton of
its link in Δ_{≥i}.  A skeleton has the homology of the whole below its
top degree, so the scan of Δ^[i], ``_find_witness(c, i)``, visits the faces
of Δ_{≥i} with |τ| < i and reads each link's low homology from Δ_{≥i}; for a
pure input, Δ_{≥i} is the input itself, whose links the homology memo
already holds.  A link whose top degree is 0 in Δ^[i] (|τ| = i − 1) is
read from its facets: H̃_0 = Z^(k−1) for k classes.  So the pure
1-skeleton fails exactly when the edges fall into k > 1 classes, and the
pure 0-skeleton, with no face below its top, always passes.
``is_cohen_macaulay`` is the scan of the top skeleton, memoized.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import cache
from .complexes import PurityError, SimplicialComplex, _one_class, _upper, components
from .homology import HomologyGroup, reduced_homology
from .shelling import is_shellable

_CM_CACHE = cache.new_cache()


class CMWitness(NamedTuple):
    face: int
    degree: int
    group: HomologyGroup
    skeleton_dim: Optional[int] = None


class CMReport(NamedTuple):
    verdict: bool
    witness: Optional[CMWitness] = None


def _find_witness(c: SimplicialComplex, i: int) -> Optional[CMWitness]:
    """The first face τ of the pure i-skeleton Δ^[i] whose link has a
    nonvanishing group below its top degree i − |τ|, read from Δ_{≥i}."""
    upper = _upper(c, i)
    # only faces with |τ| < i have a degree below the top; order by
    # (dimension, mask), reversed when Δ^[i] is strongly connected: links of
    # large faces are small, so scanning them first keeps the homology
    # cache hot and fails fast on deep defects
    faces = [tau for k in range(-1, i - 1) for tau in upper.faces_of_dim(k)]
    if _one_class(upper.facets, i):
        faces.reverse()
    for tau in faces:
        top = i - tau.bit_count()
        if top == 1:
            k = len(components(f ^ tau for f in upper.facets if f & tau == tau))
            if k > 1:
                return CMWitness(tau, 0, HomologyGroup(k - 1))
            continue
        link = upper.link(tau)
        for k in range(0, top):
            group = reduced_homology(link, k)
            if not group.is_trivial():
                return CMWitness(tau, k, group)
    return None


def _top_scan(c: SimplicialComplex) -> CMReport:
    witness = _find_witness(c, c.dim)
    return CMReport(witness is None, witness)


def is_cohen_macaulay(c: SimplicialComplex) -> CMReport:
    """Reisner-style decision for pure complexes; raises PurityError otherwise."""
    if not c.is_pure():
        raise PurityError("Cohen-Macaulayness is defined for pure complexes")
    return cache.memo(_CM_CACHE, c.facets, _top_scan, c)


def _pure_skeletons_cm(c: SimplicialComplex) -> CMReport:
    """The link scan of every pure skeleton, lowest first; no shelling consulted."""
    for i in range(1, c.dim + 1):
        witness = _find_witness(c, i)
        if witness is not None:
            return CMReport(False, witness._replace(skeleton_dim=i))
    return CMReport(True)


def is_sequentially_cm(c: SimplicialComplex) -> CMReport:
    """True iff every pure skeleton is Cohen-Macaulay ({∅} holds vacuously)."""
    if is_shellable(c).shellable:
        return CMReport(True)
    return _pure_skeletons_cm(c)
