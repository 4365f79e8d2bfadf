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
That scan reads the two lowest skeletons from the facets: a pure 0-complex
is Cohen-Macaulay, and a pure 1-complex is Cohen-Macaulay exactly when it is
connected, so neither is built, labelled or memoized.  ``is_cohen_macaulay``
always scans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import cache
from .complexes import PurityError, SimplicialComplex, _edge_classes, all_faces
from .homology import HomologyGroup, reduced_homology
from .shelling import is_shellable

_CM_CACHE = cache.new_cache()


@dataclass(frozen=True)
class CMWitness:
    face: int
    degree: int
    group: HomologyGroup
    skeleton_dim: Optional[int] = None


@dataclass(frozen=True)
class CMReport:
    verdict: bool
    witness: Optional[CMWitness] = None


def _find_witness(c: SimplicialComplex) -> Optional[CMWitness]:
    # the link of a face τ of a pure d-complex is pure of dimension d - |τ|,
    # so only faces with |τ| < d have a degree below the top to check
    faces = [tau for tau in all_faces(c) if tau.bit_count() < c.dim]
    if c.strongly_connected():
        # all_faces order (dimension, then mask), reversed: links of large
        # faces are small; scanning them first keeps the homology cache hot
        # and fails fast on deep defects
        faces.reverse()
    for tau in faces:
        link = c.link(tau)
        for k in range(0, link.dim):
            group = reduced_homology(link, k)
            if not group.is_trivial():
                return CMWitness(tau, k, group)
    return None


def _link_scan(c: SimplicialComplex) -> CMReport:
    witness = _find_witness(c)
    return CMReport(witness is None, witness)


def is_cohen_macaulay(c: SimplicialComplex) -> CMReport:
    """Reisner-style decision for pure complexes; raises PurityError otherwise."""
    if not c.is_pure():
        raise PurityError("Cohen-Macaulayness is defined for pure complexes")
    return cache.memo(_CM_CACHE, c.facets, _link_scan, c)


def _pure_skeletons_cm(c: SimplicialComplex) -> CMReport:
    """The link scan of every pure skeleton, lowest first; no shelling consulted.

    The only face below the top of a pure 1-complex is ∅, so it fails when
    its edges fall into k > 1 classes, with the scan's witness H̃_0 = Z^(k-1).
    """
    k = _edge_classes(c.facets)
    if k > 1:
        return CMReport(False, CMWitness(0, 0, HomologyGroup(k - 1), skeleton_dim=1))
    for i in range(2, c.dim + 1):
        report = is_cohen_macaulay(c.pure_skeleton(i))
        if not report.verdict:
            return CMReport(False, replace(report.witness, skeleton_dim=i))
    return CMReport(True)


def is_sequentially_cm(c: SimplicialComplex) -> CMReport:
    """True iff every pure skeleton is Cohen-Macaulay ({∅} holds vacuously)."""
    if is_shellable(c).shellable:
        return CMReport(True)
    return _pure_skeletons_cm(c)
