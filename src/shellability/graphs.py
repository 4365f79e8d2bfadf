"""Graphs and independence complexes.

The independence complex of a graph has the graph's vertices as its vertices
and the independent sets as its faces; its facets are the maximal independent
sets.  Flag complexes are exactly the complexes arising this way: a flag
complex is the independence complex of the graph joining its non-face vertex
pairs, and the test suite checks that round trip on its flag corpus.

independence_cycle_report verifies, for a finite range of cycle lengths, that
the independence complex of the n-cycle is a strong obstruction to
shellability for every n except 5, pinning down the witnesses
(non-partitionability pattern, failing skeleton homology) for each n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .complexes import CapacityError, SimplicialComplex, _facet_sort_key, face_vertices, union
from .homology import HomologyGroup, reduced_homology
from .obstruction import is_hereditary, obstruction_report
from .partition import _two_private_facets, band_complex, is_partitionable
from .properties import PropertyKind, satisfies
from .shelling import is_shellable


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as adjacency bitmask rows."""

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        if self.n > 64:
            raise CapacityError("at most 64 vertices")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency row count must equal n")
        for v, row in enumerate(self.adjacency):
            if row >> self.n:
                raise ValueError("adjacency bit outside vertex range")
            if row & (1 << v):
                raise ValueError("graph must be irreflexive")
            for w in face_vertices(row):
                if not self.adjacency[w] & (1 << v):
                    raise ValueError("adjacency must be symmetric")


def graph_from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) has a vertex outside 0..{n - 1} (n = {n})")
        if a == b:
            raise ValueError("no loops")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(k, (k + 1) % n) for k in range(n)])


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets, as masks (Bron-Kerbosch with pivoting)."""
    full = (1 << g.n) - 1
    non_adj = tuple(full & ~g.adjacency[v] & ~(1 << v) for v in range(g.n))
    out: list[int] = []

    def expand(current: int, allowed: int, excluded: int) -> None:
        if allowed == 0 and excluded == 0:
            out.append(current)
            return
        pool = allowed | excluded
        pivot = max(face_vertices(pool), key=lambda w: (non_adj[w] & allowed).bit_count())
        for v in face_vertices(allowed & ~non_adj[pivot]):
            bit = 1 << v
            expand(current | bit, allowed & non_adj[v], excluded & non_adj[v])
            allowed &= ~bit
            excluded |= bit

    expand(0, full, 0)
    out.sort()
    return out


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent sets of the graph; the
    maximal independent sets are an antichain, so they are its facets as is."""
    if g.n == 0:
        raise ValueError("independence complex needs at least one vertex")
    facets = sorted(maximal_independent_sets(g), key=_facet_sort_key)
    return SimplicialComplex(tuple(facets), union(facets))


@dataclass(frozen=True)
class CycleCaseReport:
    n: int
    dim: int
    expected_obstruction: bool
    is_obstruction: bool
    is_strong: bool
    shellable: bool
    partitionable: bool
    sequentially_cm: bool
    has_disjoint_top_facets: Optional[bool]
    top_skeleton_is_band: Optional[bool]
    private_facet_pattern: Optional[bool]
    skeleton_h1: Optional[HomologyGroup]
    hereditary_shellable: Optional[bool]
    ok: bool


@dataclass(frozen=True)
class CycleObstructionReport:
    n_range: tuple[int, int]
    cases: tuple[CycleCaseReport, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)


def _has_two_disjoint_top_facets(c: SimplicialComplex) -> bool:
    top = c.dim + 1
    tops = [f for f in c.facets if f.bit_count() == top]
    return any(a & b == 0 for a, b in combinations(tops, 2))


def independence_cycle_report(n_max: int = 9) -> CycleObstructionReport:
    """Check the cycle independence complexes for 4 <= n <= n_max.

    Expected picture: the complex is a strong obstruction to shellability for
    every n except 5 (where it is a shellable 5-cycle, hereditarily so).
    Even n fail partitionability through the two-private-facets pattern; odd
    n have a band top skeleton with first homology Z.  Only this finite range
    is checked, up to n_max = 10.  Each complex is decided on its raw facets
    and each decision is made once; the 10-vertex complex lies above the
    canonical-labeling cap, but its vertex deletions are below it, so its
    restrictions are decided through the memo of hereditary verdicts, one
    isomorphism class at a time.
    """
    if n_max > 10:
        raise CapacityError("n_max above 10 is not supported")
    if n_max < 4:
        raise ValueError("n_max below 4 checks no cycle")
    cases = []
    for n in range(4, n_max + 1):
        ind = independence_complex(cycle_graph(n))
        d = n // 2 - 1
        expected = n != 5
        report = obstruction_report(ind, PropertyKind.SHELLABLE)
        shellable = is_shellable(ind).shellable
        partitionable = is_partitionable(ind).partitionable
        scm = satisfies(ind, PropertyKind.SEQUENTIALLY_CM)

        disjoint = band = private = h1 = hereditary = None
        checks = [ind.dim == d, report.is_obstruction == expected, report.is_strong == expected]
        if n % 2 == 0:
            disjoint = _has_two_disjoint_top_facets(ind)
            checks.append(disjoint)
        else:
            skel = ind.pure_skeleton(d)
            band = skel.is_isomorphic(band_complex(d, n))
            checks.append(band)
        if expected:
            checks += [not shellable, not partitionable, not scm]
            if n % 2 == 0:
                private = _two_private_facets(ind)
                skel = ind.pure_skeleton(d)
                checks += [private, not skel.strongly_connected()]
            else:
                h1 = reduced_homology(ind.pure_skeleton(d), 1)
                checks.append(h1 == HomologyGroup(1))
        else:
            hereditary = is_hereditary(ind, PropertyKind.SHELLABLE)[0]
            checks += [shellable, partitionable, scm, hereditary]

        cases.append(CycleCaseReport(
            n=n,
            dim=ind.dim,
            expected_obstruction=expected,
            is_obstruction=report.is_obstruction,
            is_strong=report.is_strong,
            shellable=shellable,
            partitionable=partitionable,
            sequentially_cm=scm,
            has_disjoint_top_facets=disjoint,
            top_skeleton_is_band=band,
            private_facet_pattern=private,
            skeleton_h1=h1,
            hereditary_shellable=hereditary,
            ok=all(checks),
        ))
    return CycleObstructionReport((4, n_max), tuple(cases))
