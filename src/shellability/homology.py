"""Reduced simplicial homology over the integers.

Boundary matrices are taken over the augmented chain complex (the empty face
is a generator in dimension -1), so all homology here is reduced homology.
Smith normal form is computed exactly; Python integers make every
intermediate value arbitrary precision for free.

Boundary matrices are sparse with entries ±1, so the reduction first
eliminates on unit pivots, as in Dumas, Heckenbach, Saunders and Welker,
"Computing simplicial homology based on efficient Smith normal form
algorithms" (2003): while some row has an entry ±1, the sparsest such row
clears its pivot's column by row operations, and the pivot's row and column
are dropped.  Each such step is unimodular and contributes the invariant
factor 1.  Only the residual block, which has no unit entry, goes to a dense
reduction whose pivot rule favours entries of least magnitude to keep growth
down.

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

Homology is memoized on the raw facets, not on canonical forms: a group
carries no vertex labels, and a canonical labeling costs more than the
homology it would save.  A complex has one memo entry, holding its groups
in every degree -1..dim.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cache
from .complexes import SimplicialComplex, components, face_vertices

_HOMOLOGY_CACHE = cache.new_cache()


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus invariant factors."""

    betti: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

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


@dataclass(frozen=True)
class BoundaryMatrix:
    """The boundary map from k-chains to (k-1)-chains in sorted-mask bases."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Augmented boundary matrix; k = 0 maps vertices onto the empty face."""
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


def smith_normal_form(matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, plus its rank.

    Accepts any rectangular sequence of int rows (a BoundaryMatrix's entries
    included).  Unit pivots are eliminated on sparse rows first; the block
    left without a unit entry goes to ``_dense_invariant_factors``.
    """
    n_cols = len(matrix[0]) if matrix else 0
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(matrix):
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        entries = {j: int(v) for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
            for j in entries:
                col_rows.setdefault(j, set()).add(i)

    units = 0
    while True:
        pivot = None
        shortest = n_cols + 1
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
            break
        # Once row operations clear the pivot's column, column operations
        # clear the rest of its row without touching any other row.
        pivot_row = rows.pop(pivot)
        for j in pivot_row:
            col_rows[j].discard(pivot)
        unit = pivot_row[pivot_col]
        for i in col_rows.pop(pivot_col):
            row = rows[i]
            factor = row[pivot_col] * unit
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
        units += 1

    residual_cols = [j for j, members in col_rows.items() if members]
    residual = [[row.get(j, 0) for j in residual_cols] for row in rows.values()]
    divisors = [1] * units + _dense_invariant_factors(residual)
    return divisors, len(divisors)


def _dense_invariant_factors(m: list[list[int]]) -> list[int]:
    """Invariant factors of a dense matrix, which the reduction overwrites.

    Pure row/column reduction with a least-magnitude pivot rule; the
    divisibility chain is enforced before each pivot is frozen.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
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

    return divisors


def _homology_groups(c: SimplicialComplex) -> tuple[HomologyGroup, ...]:
    """The groups of degrees -1..dim, from one reduction per map ∂_2..∂_dim.

    A cone, with a vertex in every facet, is contractible and needs no
    matrix.  ∂_1 is the signed incidence matrix of the 1-skeleton, which is
    totally unimodular: its rank is the vertex count less the number of
    components, and it has no torsion.
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
    for k in range(2, c.dim + 1):
        factors, rank = smith_normal_form(boundary_matrix(c, k).entries)
        ranks.append(rank)
        torsion.append(tuple(d for d in factors if d > 1))
    ranks.append(0)
    torsion.append(())
    return tuple(
        HomologyGroup(n - ranks[i] - ranks[i + 1], torsion[i + 1])
        for i, n in enumerate(c.f_vector())
    )


def reduced_homology(c: SimplicialComplex, k: int) -> HomologyGroup:
    """The k-th reduced homology group of the complex over the integers."""
    if k < -1:
        raise ValueError("reduced homology is defined for k >= -1")
    if k > c.dim:
        return ZERO_GROUP
    return cache.memo(_HOMOLOGY_CACHE, c.facets, _homology_groups, c)[k + 1]
