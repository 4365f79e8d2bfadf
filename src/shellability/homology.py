"""Reduced simplicial homology over the integers.

Boundary matrices are taken over the augmented chain complex (the empty face
is a generator in dimension -1), so all homology here is reduced homology.
Smith normal form is computed exactly; Python integers make every
intermediate value arbitrary precision for free.

Boundary matrices are sparse with entries ±1, and no dense matrix is
built: ∂_k is reduced as its transpose, which has the same invariant
factors, one sparse row {σ − v: ±1} per k-face σ, read straight from the
faces.  The reduction is one loop on sparse rows that eliminates on unit
pivots first, as in Dumas, Heckenbach, Saunders and Welker, "Computing
simplicial homology based on efficient Smith normal form algorithms"
(2003).  A column met by a single row with entry ±1 is a free face: that
row and column are dropped at once, with the invariant factor 1, and no
other row changes.  Otherwise, while some row has an entry ±1, the
sparsest such row clears its pivot's column by row operations, and the
pivot's row and column are dropped, with the invariant factor 1.  Once no
unit entry is left, the same loop pivots on an entry p of least
magnitude.  Row and column operations leave remainders below |p|; while
one is left, p's row goes back and a smaller entry is the next pivot.  Once
p clears its row and column, it is frozen only if it divides every entry
left; otherwise a row it does not divide is added to its row, which leaves
a remainder.  So the factors come out as a divisibility chain: the 1s, then
p1 | p2 | ....

H_k has rank n_k - rank ∂_k - rank ∂_{k+1} and torsion the invariant
factors of ∂_{k+1} above 1, so the ranks and torsion of all the maps give
every degree at once.  Only ∂_2..∂_dim of a complex that is not a cone go
through Smith normal form, once each; the rest is read from the facets.  A
cone (some vertex lies in every facet) is contractible, so its reduced
homology is 0 in every degree.  ∂_0, from the vertices to the empty face,
is one row of ones: rank 1 and no torsion whenever there is a vertex.  ∂_1
is the signed incidence matrix of the 1-skeleton, which is totally
unimodular: its rank is the number of vertices less the number of
components, and it has no torsion.

Homology is memoized on the raw facets, not on canonical forms, and so is
every decider (shelling, partition, Cohen-Macaulay): a canonical labeling
costs more than the decision it would save, so each input is decided in its
own labels and a relabeled copy is a new key.  A complex has one homology
entry, holding its groups in every degree -1..dim.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import NamedTuple

from . import cache
from .complexes import SimplicialComplex, components, face_vertices

_HOMOLOGY_CACHE = cache.new_cache()


class _GroupFields(NamedTuple):
    betti: int
    torsion: tuple[int, ...] = ()


class HomologyGroup(_GroupFields):
    """A finitely generated abelian group: free rank plus invariant factors.

    A tuple of its two fields.  ``__new__`` checks that the rank is not
    negative and that the torsion is a divisibility chain of factors above 1;
    ``typing.NamedTuple`` refuses a ``__new__`` in its own class body, so the
    fields live in a base class.
    """

    __slots__ = ()

    def __new__(cls, betti: int, torsion: tuple[int, ...] = ()):
        if betti < 0:
            raise ValueError("negative rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
        if any(d <= 1 for d in torsion):
            raise ValueError("torsion coefficients must exceed 1")
        return super().__new__(cls, betti, torsion)

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"C{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


ZERO_GROUP = HomologyGroup(0)


def smith_normal_form(matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, plus its rank.

    Accepts a sequence of rows, each either a rectangular sequence of
    integers or a mapping {column: entry} of its nonzero entries; an entry
    that is not an integer, such as a float or a string, raises TypeError.
    One loop on sparse rows.  It first takes a column met by a single row
    whose entry is ±1: that row is a free face, and dropping it changes no
    other row.  Otherwise it pivots on the sparsest row's unit entry while
    one is left, then on an entry of least magnitude.
    """
    width = len(matrix[0]) if matrix else 0
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(matrix):
        if isinstance(row, Mapping):
            pairs = row.items()
        elif len(row) != width:
            raise ValueError("ragged matrix")
        else:
            pairs = enumerate(row)
        entries = {j: v for j, v in ((j, operator.index(v)) for j, v in pairs) if v}
        if entries:
            rows[i] = entries
            for j in entries:
                col_rows.setdefault(j, set()).add(i)

    # columns met by a single row, at the start or once a pivot row is
    # dropped; whether the entry is a unit is checked when one is taken
    single = [j for j, met in col_rows.items() if len(met) == 1]
    divisors: list[int] = []
    while rows:
        pivot = None
        while single:
            j = single.pop()
            met = col_rows.get(j)
            if met is not None and len(met) == 1:
                i = next(iter(met))
                if rows[i][j] in (1, -1):
                    pivot, pivot_col = i, j
                    break
        if pivot is None:
            shortest = len(col_rows) + 1  # every entry's column is a key
            for i, row in rows.items():
                if len(row) >= shortest:
                    continue
                for j, v in row.items():
                    if v == 1 or v == -1:
                        pivot, pivot_col, shortest = i, j, len(row)
                        break
                if shortest == 1:
                    break
        if pivot is None:
            least = 0
            for i, row in rows.items():
                for j, v in row.items():
                    if not least or -least < v < least:
                        pivot, pivot_col, least = i, j, abs(v)
        pivot_row = rows.pop(pivot)
        for j in pivot_row:
            met = col_rows[j]
            met.discard(pivot)
            if len(met) == 1:
                single.append(j)
        p = pivot_row[pivot_col]
        touched = col_rows.pop(pivot_col)
        for i in touched:
            row = rows[i]
            factor = row[pivot_col] // p
            for j, v in pivot_row.items():
                new = row.get(j, 0) - factor * v
                if new:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    if j != pivot_col:
                        col_rows[j].discard(i)
            if not row:
                del rows[i]
        if p == 1 or p == -1:
            # Once row operations clear a unit's column, column operations
            # clear the rest of its row without touching any other row.
            divisors.append(1)
            continue
        # Row operations leave remainders below |p| in the pivot's column.
        # Once that column is clear, column operations leave remainders in
        # the pivot's row, and p is frozen only if it divides every entry.
        # Any remainder puts the pivot's row back, with a smaller least entry.
        left = {i for i in touched if pivot_col in rows.get(i, ())}
        if not left:
            rest = {j: v % p for j, v in pivot_row.items() if v % p}
            if not rest:
                offender = next((row for row in rows.values() if any(v % p for v in row.values())), None)
                if offender is None:
                    divisors.append(abs(p))
                    continue
                rest = {j: v % p for j, v in offender.items() if v % p}
            pivot_row = {pivot_col: p, **rest}
        rows[pivot] = pivot_row
        col_rows[pivot_col] = left
        for j in pivot_row:
            col_rows[j].add(pivot)
    return divisors, len(divisors)


def _boundary_rows(faces: list[int], cofaces: list[int]) -> list[dict[int, int]]:
    """The transpose of ∂_k as sparse rows: one row {σ − v: ±1} per k-face σ
    in ``cofaces``, its columns the positions of the (k−1)-faces in
    ``faces``.  The sign of σ − v is (−1)^(position of v in σ)."""
    index = {s: j for j, s in enumerate(faces)}
    return [
        {index[s ^ 1 << v]: -1 if pos % 2 else 1 for pos, v in enumerate(face_vertices(s))}
        for s in cofaces
    ]


def _homology_groups(c: SimplicialComplex) -> tuple[HomologyGroup, ...]:
    """The groups of degrees -1..dim, from one reduction per map ∂_2..∂_dim.

    A cone, with a vertex in every facet, is contractible and needs no
    matrix.  ∂_1 is the signed incidence matrix of the 1-skeleton, which is
    totally unimodular: its rank is the vertex count less the number of
    components, and it has no torsion.  ∂_k for k >= 2 is reduced as its
    transpose, which has the same invariant factors: one sparse row
    {σ − v: ±1} per k-face σ, over the faces enumerated once and bucketed
    by size, which give the f-vector too.
    """
    if c.dim < 0:
        return (HomologyGroup(1),)
    apex = c.facets[0]
    for fct in c.facets:
        apex &= fct
    if apex:
        return (ZERO_GROUP,) * (c.dim + 2)
    # entry i of the f-vector counts the faces of degree i - 1, and entry i
    # of ranks and torsion belongs to ∂_{i-1}; at dim 0, ∂_1 is the zero map
    ranks = [0, 1, c.n_vertices - len(components(c.facets))]
    torsion: list[tuple[int, ...]] = [(), (), ()]
    if c.dim <= 1:  # the faces of a graph are ∅, its vertices and its edges
        f = [1, c.n_vertices, sum(fct.bit_count() == 2 for fct in c.facets)][: c.dim + 2]
    else:
        by_size: list[list[int]] = [[] for _ in range(c.dim + 2)]
        for s in c.faces():
            by_size[s.bit_count()].append(s)
        f = [len(faces) for faces in by_size]
        for k in range(2, c.dim + 1):
            factors, rank = smith_normal_form(_boundary_rows(by_size[k], by_size[k + 1]))
            ranks.append(rank)
            torsion.append(tuple(d for d in factors if d > 1))
    ranks.append(0)
    torsion.append(())
    groups = []
    for i, n in enumerate(f):
        betti = n - ranks[i] - ranks[i + 1]
        # most degrees are trivial: share the one zero group, build only the rest
        groups.append(HomologyGroup(betti, torsion[i + 1]) if betti or torsion[i + 1] else ZERO_GROUP)
    return tuple(groups)


def reduced_homology(c: SimplicialComplex, k: int) -> HomologyGroup:
    """The k-th reduced homology group of the complex over the integers."""
    if k < -1:
        raise ValueError("reduced homology is defined for k >= -1")
    if k > c.dim:
        return ZERO_GROUP
    return cache.memo(_HOMOLOGY_CACHE, c.facets, _homology_groups, c)[k + 1]
