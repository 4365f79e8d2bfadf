"""Finite abstract simplicial complexes over a small vertex universe.

A face is encoded as an integer bitmask: bit v set means vertex v is in the
face.  The empty face is ``0`` and has dimension -1.  A complex is stored by
its facets (the inclusion-maximal faces); every other face is derived on
demand.  All operations are pure and every value is immutable after
construction, so instances can be shared freely.

Vertex ids must be below 64.  Everything this library enumerates lives on at
most nine vertices; the cap simply keeps all face arithmetic on machine-word
bitmasks.

Isomorphism classes are keyed by a canonical form (at most nine vertices),
found by individualization-refinement in the style of McKay and Piperno,
"Practical graph isomorphism, II" (J. Symb. Comput. 2014): colour refinement
splits the vertices into cells; while the cells admit more than 6! labelings,
each vertex of the first non-singleton cell is individualized in turn and the
colours refined again; the leaves, at 6! labelings or fewer, are enumerated
exhaustively.  Automorphisms found on the way prune the children.

A refinement round gives each facet one integer, ordered as (size, sorted
colours), and ranks each vertex by its colour and the sorted integers of its
facets.  Vertices are compared only within a colour c, and dropping one copy
of c from two sorted colour lists of the same length keeps their order and
their equality; so the ranks are those of the signatures that list each
facet's colours less the vertex's own.  A round that splits no cell ends the
refinement.
"""

from __future__ import annotations

import warnings
from array import array
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from operator import add
from typing import Iterable, Iterator, NamedTuple, Union

from . import cache

VERTEX_CAP = 64
CANONICAL_VERTEX_CAP = 9

FaceLike = Union[int, Iterable[int]]


class CapacityError(ValueError):
    """A vertex id or vertex count exceeds what the encoding supports."""


class InvalidFaceError(ValueError):
    """A face argument is not a face of the complex in question."""


class PurityError(ValueError):
    """The operation requires a pure complex."""


class FacetAbsorbedWarning(UserWarning):
    """A parsed facet line was a subset of another and got absorbed."""


def face(vertices: FaceLike) -> int:
    """Build a face bitmask from an iterable of vertex ids (or pass a mask through)."""
    if isinstance(vertices, int):
        mask = vertices
        if mask < 0 or mask >> VERTEX_CAP:
            raise CapacityError(f"face mask out of range: {vertices!r}")
        return mask
    mask = 0
    for v in vertices:
        if not 0 <= v < VERTEX_CAP:
            raise CapacityError(f"vertex id {v} outside 0..{VERTEX_CAP - 1}")
        mask |= 1 << v
    return mask


def face_vertices(mask: int) -> tuple[int, ...]:
    """Sorted vertex ids of a face mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def union(masks: Iterable[int]) -> int:
    """The vertices covered by the masks (``0`` when there are none)."""
    out = 0
    for m in masks:
        out |= m
    return out


def components(masks: Iterable[int]) -> list[int]:
    """Vertex sets of the classes of masks linked by shared vertices.

    Each mask joins every class it meets; ``0`` forms a class of its own, so
    the masks ``(0,)`` give one class and no masks give none.
    """
    comps: list[int] = []
    for merged in masks:
        rest = []
        for comp in comps:
            if comp & merged:
                merged |= comp
            else:
                rest.append(comp)
        rest.append(merged)
        comps = rest
    return comps


def _edge_classes(facets: Iterable[int]) -> int:
    """The number of components of the 1-skeleton's edges: the facets with
    an edge, linked by shared vertices (0 when there is no edge)."""
    return len(components(f for f in facets if f.bit_count() >= 2))


def subsets_of(mask: int) -> Iterator[int]:
    """All subsets of a face mask, the empty face included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _facet_sort_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


class CanonicalForm(NamedTuple):
    """Isomorphism-class key: two complexes are isomorphic iff these compare equal.

    ``facets`` is the facet list relabelled onto ``0..n_vertices-1``, sorted
    by size, then mask, and is the least such list over the leaves of the
    individualization-refinement tree.  A leaf is an ordered partition of the
    vertices into cells admitting at most 6! = 720 labelings that number each
    cell consecutively; its key is the least over all of them.  The tree, the
    leaves and their keys are isomorphism invariants, so the key separates
    isomorphism classes exactly; the test suite cross-checks it against a
    brute-force permutation oracle.  On at most six vertices the root is a
    leaf, and the key is the one of exhaustive enumeration over the refined
    colour classes, unchanged from before the tree existed.
    """

    n_vertices: int
    facets: tuple[int, ...]


class SimplicialComplex:
    """An antichain of facets over the vertex set they cover.

    The vertex universe is always exactly the union of the facets; the only
    complex with no vertices is ``{∅}`` (facet list ``(0,)``), and the void
    complex without any face at all is deliberately unrepresentable.
    """

    __slots__ = ("facets", "vertices", "_faces", "_faces_by_dim", "_canon")

    facets: tuple[int, ...]
    vertices: int

    def __init__(self, facets: tuple[int, ...], vertices: int):
        # Internal: use from_facets(), which normalises to an antichain.
        self.facets = facets
        self.vertices = vertices
        self._faces = None
        self._faces_by_dim = None
        self._canon = None

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.facets[-1].bit_count() - 1

    @property
    def n_vertices(self) -> int:
        return self.vertices.bit_count()

    def vertex_ids(self) -> tuple[int, ...]:
        return face_vertices(self.vertices)

    def is_pure(self) -> bool:
        return self.facets[0].bit_count() == self.facets[-1].bit_count()

    def faces(self) -> frozenset[int]:
        """Every face of the complex, the empty face included."""
        if self._faces is None:
            seen = set()
            for fct in self.facets:
                for sub in subsets_of(fct):
                    seen.add(sub)
            self._faces = frozenset(seen)
        return self._faces

    def faces_of_dim(self, k: int) -> list[int]:
        """Sorted list of k-dimensional faces (k = -1 gives ``[0]``)."""
        if self._faces_by_dim is None:
            by_dim: dict[int, list[int]] = {}
            for f in self.faces():
                by_dim.setdefault(f.bit_count() - 1, []).append(f)
            for bucket in by_dim.values():
                bucket.sort()
            self._faces_by_dim = by_dim
        return list(self._faces_by_dim.get(k, []))

    def f_vector(self) -> list[int]:
        """Face counts indexed from dimension -1, so it always starts with 1."""
        return [len(self.faces_of_dim(k)) for k in range(-1, self.dim + 1)]

    # -- derived complexes -------------------------------------------------

    def restriction(self, within: FaceLike) -> "SimplicialComplex":
        """Faces contained in the given vertex set; ids outside V are ignored."""
        w = face(within)
        return from_facets([fct & w for fct in self.facets])

    def deletion(self, removed: FaceLike) -> "SimplicialComplex":
        """Restriction to the complement vertex set."""
        return self.restriction(self.vertices & ~face(removed))

    def link(self, tau: FaceLike) -> "SimplicialComplex":
        """The faces σ with σ ∩ τ = ∅ and σ ∪ τ a face, read from the facets.

        Its facets are the facets F ⊇ τ less τ, as they come: F − τ ⊆ G − τ
        gives F ⊆ G, so they are an antichain, and dropping the same bits
        from supersets of τ keeps the (size, mask) order.
        """
        t = face(tau)
        rest = [fct ^ t for fct in self.facets if fct & t == t]
        if not rest:
            raise InvalidFaceError(f"{face_vertices(t)} is not a face of the complex")
        return SimplicialComplex(tuple(rest), union(rest))

    def pure_skeleton(self, i: int) -> "SimplicialComplex":
        """The subcomplex generated by all i-dimensional faces.

        The i-faces all have one size and come sorted by mask, so they are
        the facets as they come.  For i above the dimension there are none
        and the result is the minimal complex {∅}; callers iterating
        skeleton dimensions never have to guard the top end.
        """
        top = self.faces_of_dim(i) or [0]
        return SimplicialComplex(tuple(top), union(top))

    # -- connectivity ------------------------------------------------------

    def strongly_connected(self) -> bool:
        """Facet connectivity through codimension-one intersections (pure input only)."""
        if not self.is_pure():
            raise PurityError("strong connectivity is defined for pure complexes")
        k = self.facets[0].bit_count()
        m = len(self.facets)
        if m <= 1:
            return True
        reached = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(m):
                if j not in reached and (self.facets[i] & self.facets[j]).bit_count() == k - 1:
                    reached.add(j)
                    stack.append(j)
        return len(reached) == m

    # -- isomorphism ---------------------------------------------------------

    def canonical_form(self) -> CanonicalForm:
        if self._canon is None:
            self._canon = cache.memo(_CANON_CACHE, self.facets, _canonicalize, self.facets, self.vertices)
        return self._canon

    def is_isomorphic(self, other: "SimplicialComplex") -> bool:
        return self.canonical_form() == other.canonical_form()

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        if self.facets == (0,):
            return "SimplicialComplex({∅})"
        inner = ", ".join("{" + ",".join(map(str, face_vertices(f))) + "}" for f in self.facets)
        return f"SimplicialComplex({inner})"


def from_facets(candidates: Iterable[FaceLike]) -> SimplicialComplex:
    """The complex generated by the candidate faces.

    Non-maximal candidates are absorbed.  An empty candidate list yields the
    minimal complex {∅}.
    """
    masks = sorted({face(c) for c in candidates}, key=_facet_sort_key, reverse=True)
    kept: list[int] = []
    for m in masks:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    if not kept:
        kept = [0]
    kept.sort(key=_facet_sort_key)
    return SimplicialComplex(tuple(kept), union(kept))


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

_CANON_CACHE: dict[tuple[int, ...], CanonicalForm]
_CANON_CACHE = cache.new_cache()

# A node of the search tree is a leaf once its cells admit at most this many
# compatible labelings (6!).  Every complex on at most six vertices is then a
# leaf at the root, so its key is the exhaustive minimum it always was.
_LEAF_LABELINGS = 720


def _ranks(sigs: list) -> list[int]:
    rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs]


# Vertex ids of a compacted facet mask, cached as masks turn up: there are at
# most 2 ** CANONICAL_VERTEX_CAP of them.
_vertex_tuple = lru_cache(maxsize=None)(face_vertices)


def _refine_colors(
    n: int, facet_bits: list[tuple[int, ...]], colors: list[int] | None = None
) -> list[int]:
    """Iterated colour refinement over the vertex-facet incidence structure.

    Starts from ``colors`` (contiguous ranks 0..k-1) or, by default, from the
    multiset of incident facet sizes.  Each round gives every facet one
    integer, ordered as (size, sorted colours of its vertices), and ranks the
    signatures (own colour, sorted integers of the incident facets), so cells
    only ever split and the result is an isomorphism invariant of the start.

    Signatures are compared only between vertices of one colour c, and every
    facet they list contains c.  Removing one copy of c from two sorted
    colour lists of the same length keeps their order and their equality, so
    the ranks are those of signatures that list each facet's colours less
    the vertex's own.  As a signature leads with the old colour, a round that
    splits no cell returns the same ranks: refinement stops after one, or
    once every cell is a singleton.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, bits in enumerate(facet_bits):
        for v in bits:
            incident[v].append(idx)
    if colors is None:  # the first round ranks the multisets of incident facet sizes
        colors = [0] * n
    # A facet's integer is its size times ``top``, less one base-2**width
    # digit per colour, colour 0 the most significant, that counts the
    # facet's vertices of that colour.  Of two sorted colour lists of one
    # length, the smaller has more copies of the first colour whose counts
    # differ, so a larger count there gives a smaller integer.
    width = n.bit_length()
    top = 1 << (width * n)
    cells = max(colors) + 1
    while cells < n:
        weight = [top - (1 << (width * (n - 1 - c))) for c in colors]
        codes = [sum(map(weight.__getitem__, bits)) for bits in facet_bits]
        refined = _ranks([(c, *sorted(map(codes.__getitem__, inc))) for c, inc in zip(colors, incident)])
        split = max(refined) + 1
        if split == cells:
            break
        colors, cells = refined, split
    return colors


def _cells(colors: list[int]) -> list[list[int]]:
    """Vertices grouped by colour, cells in colour order, each cell ascending."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _is_leaf(cells: list[list[int]]) -> bool:
    """Whether the labelings numbering each cell consecutively are few enough."""
    return prod(factorial(len(cell)) for cell in cells) <= _LEAF_LABELINGS


@lru_cache(maxsize=None)
def _cell_relabelings(k: int, offset: int, symmetric: bool) -> tuple[tuple[tuple[int, ...], array], ...]:
    """Every permutation p of range(k), in ``itertools`` order, with its table;
    only the identity when the cell is ``symmetric``.

    The table maps a subset of a k-vertex cell, as a mask over cell indices,
    to its labels when cell index p[pos] gets label offset + pos.  Tables are
    16-bit words, so the labels must stay below 16.
    """
    if offset + k > 16:
        raise CapacityError(
            f"leaf tables hold labels 0..15; a cell of {k} vertices at offset {offset} needs {offset + k}"
        )
    out = []
    inverse = [0] * k
    for perm in [tuple(range(k))] if symmetric else permutations(range(k)):
        for pos, j in enumerate(perm):
            inverse[j] = pos
        table = [0]
        for j in range(k):
            bit = 1 << (offset + inverse[j])
            table += [t + bit for t in table]
        out.append((perm, array("H", table)))
    return tuple(out)


def _swap_preserves(facet_set: set[int], v: int, w: int) -> bool:
    """Whether exchanging vertices v and w maps the facets onto themselves."""
    both = (1 << v) | (1 << w)
    return all(f & both in (0, both) or f ^ both in facet_set for f in facet_set)


def _leaf(
    n: int,
    facet_set: set[int],
    facet_bits: list[tuple[int, ...]],
    cells: list[list[int]],
    ties: list | None = None,
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Least key over the labelings that number the cells consecutively.

    Enumerates every product of permutations of the non-singleton cells, in
    the order of ``itertools.product``, and keeps the first one reaching the
    least key.  A cell whose adjacent transpositions all preserve the facets
    is symmetric: all its permutations give the same key, so only the first
    is tried.  Keys are facet masks with the facet size added above bit n,
    so one sort orders them by size, then mask.  Returns the key and the
    winning permutations (see ``_label``); ``ties`` receives the later ones
    that reach the same key.
    """
    label_bit = [0] * n  # of a vertex in a singleton cell
    varying = []
    offset = 0
    for cell in cells:
        if len(cell) == 1:
            label_bit[cell[0]] = 1 << offset
        else:
            index_bit = [0] * n
            for j, v in enumerate(cell):
                index_bit[v] = 1 << j
            local = [sum(map(index_bit.__getitem__, bits)) for bits in facet_bits]
            symmetric = all(_swap_preserves(facet_set, v, w) for v, w in zip(cell, cell[1:]))
            varying.append((local, _cell_relabelings(len(cell), offset, symmetric)))
        offset += len(cell)
    base = [(len(bits) << n) + sum(map(label_bit.__getitem__, bits)) for bits in facet_bits]

    best: list = [sorted(base), ()]
    chosen: list[tuple[int, ...]] = []

    def descend(depth: int, partial: list[int]) -> None:
        local, relabelings = varying[depth]
        last = depth + 1 == len(varying)
        for perm, table in relabelings:
            grown = map(add, partial, map(table.__getitem__, local))
            if not last:
                chosen.append(perm)
                descend(depth + 1, list(grown))
                chosen.pop()
                continue
            key = sorted(grown)
            if not best[1] or key < best[0]:
                best[:] = [key, (*chosen, perm)]
                if ties is not None:
                    ties.clear()
            elif ties is not None and key == best[0]:
                ties.append((*chosen, perm))

    if varying:
        descend(0, base)
    return best[0], best[1]


def _label(n: int, cells: list[list[int]], perms: tuple[tuple[int, ...], ...]) -> list[int]:
    """Label by vertex: cells numbered in order, each non-singleton cell
    ordered by its permutation of cell indices."""
    label = [0] * n
    offset = 0
    perms_left = iter(perms)
    for cell in cells:
        order = cell if len(cell) == 1 else [cell[j] for j in next(perms_left)]
        for pos, v in enumerate(order):
            label[v] = offset + pos
        offset += len(cell)
    return label


def _individualize(colors: list[int], v: int) -> list[int]:
    """Split v off the front of its cell, which holds other vertices too,
    keeping colours contiguous ranks."""
    c = colors[v]
    return [k + (k > c or (k == c and w != v)) for w, k in enumerate(colors)]


def _orbits(n: int, generators: list[list[int]]) -> list[int]:
    """The least vertex of each vertex's orbit under the generated group."""
    orbit = list(range(n))
    changed = True
    while changed:
        changed = False
        for g in generators:
            for v in range(n):
                if orbit[v] < orbit[g[v]]:
                    orbit[g[v]] = orbit[v]
                    changed = True
    return orbit


def _search_tree(
    n: int, facet_set: set[int], facet_bits: list[tuple[int, ...]], root: list[int]
) -> tuple[int, ...]:
    """Least leaf key of the individualization-refinement tree below ``root``.

    A node individualizes, in turn, each vertex of its first non-singleton
    cell and refines again.  A child is skipped when an automorphism fixing
    the node's individualized vertices maps it to an explored sibling: either
    its transposition with that sibling, or one generated from the
    automorphisms read off pairs of leaves with equal keys and off labelings
    tied within a leaf.  The skipped subtree is the image of an explored one
    and has the same leaf keys, so the least key is exact.
    """
    leaves: dict[tuple[int, ...], list[int]] = {}
    automorphisms: list[list[int]] = []

    def found(label: list[int], twin: list[int]) -> list[int]:
        """The automorphism taking each vertex to the one ``twin`` labels alike."""
        inverse = [0] * n
        for v, lab in enumerate(twin):
            inverse[lab] = v
        return [inverse[lab] for lab in label]

    def visit(colors: list[int], prefix: tuple[int, ...]) -> None:
        cells = _cells(colors)
        if _is_leaf(cells):
            ties: list = []
            key, perms = _leaf(n, facet_set, facet_bits, cells, ties)
            label = _label(n, cells, perms)
            twin = leaves.setdefault(tuple(key), label)
            if twin is not label:
                automorphisms.append(found(label, twin))
            # labelings tied within the leaf differ by automorphisms that fix
            # its cells; keep those that merge orbits, until each cell is a
            # single orbit
            kept: list[list[int]] = []
            for tied in reversed(ties):
                orbit = _orbits(n, kept)
                if len(set(orbit)) == len(cells):
                    break
                g = found(_label(n, cells, tied), label)
                if any(orbit[v] != orbit[g[v]] for v in range(n)):
                    kept.append(g)
            automorphisms.extend(kept)
            return
        explored: list[int] = []
        for v in next(cell for cell in cells if len(cell) > 1):
            fixing = [g for g in automorphisms if all(g[u] == u for u in prefix)]
            orbit = _orbits(n, fixing)
            if any(orbit[v] == orbit[w] for w in explored):
                continue
            twin = next((w for w in explored if _swap_preserves(facet_set, v, w)), None)
            if twin is not None:
                g = list(range(n))
                g[v], g[twin] = twin, v
                automorphisms.append(g)
                continue
            visit(_refine_colors(n, facet_bits, _individualize(colors, v)), prefix + (v,))
            explored.append(v)

    visit(root, ())
    return min(leaves)


def _canonicalize(facets: tuple[int, ...], vertices: int) -> CanonicalForm:
    n = vertices.bit_count()
    if n > CANONICAL_VERTEX_CAP:
        raise CapacityError(
            f"canonical labeling supports at most {CANONICAL_VERTEX_CAP} vertices, got {n}"
        )
    if n == 0:
        return CanonicalForm(0, (0,))
    masks = facets
    if vertices & (vertices + 1):  # the ids leave gaps: close each, top one first
        for gap in reversed(face_vertices(~vertices & ((1 << vertices.bit_length()) - 1))):
            below = (1 << gap) - 1
            masks = [m & below | m >> 1 & ~below for m in masks]
    facet_bits = list(map(_vertex_tuple, masks))
    colors = _refine_colors(n, facet_bits)
    cells = _cells(colors)
    if _is_leaf(cells):
        key = _leaf(n, set(masks), facet_bits, cells)[0]
    else:
        key = _search_tree(n, set(masks), facet_bits, colors)
    low = (1 << n) - 1
    return CanonicalForm(n, tuple(map(low.__and__, key)))


# ---------------------------------------------------------------------------
# facet-list text format
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> SimplicialComplex:
    """Read the facet-list interchange format.

    One facet per line, vertices as whitespace-separated tokens; blank lines
    and ``#`` comments are ignored.  If every token in the file is a
    non-negative integer in ASCII digits the integers are used as vertex ids
    directly, otherwise tokens are mapped to ids in order of first appearance,
    so a non-ASCII digit such as ``²`` or ``٣`` is a label.  A facet line
    that is a subset of another is absorbed with a warning.  A file with
    no facet lines denotes the minimal complex {∅}.
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        for tok in tokens:
            if not tok.isalnum():
                raise ValueError(f"line {lineno}: invalid vertex token {tok!r}")
        rows.append(tokens)

    numeric = all(tok.isascii() and tok.isdigit() for row in rows for tok in row)
    ids: dict[str, int] = {}
    masks: list[int] = []
    for row in rows:
        m = 0
        for tok in row:
            if numeric:
                v = int(tok)
                if v >= VERTEX_CAP:
                    raise CapacityError(f"vertex label {v} exceeds {VERTEX_CAP - 1}")
            else:
                if tok not in ids:
                    if len(ids) >= VERTEX_CAP:
                        raise CapacityError(f"more than {VERTEX_CAP} distinct vertex tokens")
                    ids[tok] = len(ids)
                v = ids[tok]
            m |= 1 << v
        masks.append(m)

    complex_ = from_facets(masks)
    kept = set(complex_.facets)
    for row, m in zip(rows, masks):
        if m not in kept:
            warnings.warn(
                f"facet line {' '.join(row)!r} is contained in another facet; absorbed",
                FacetAbsorbedWarning,
                stacklevel=2,
            )
            kept.add(m)  # warn once per distinct absorbed mask
    return complex_


def format_complex(c: SimplicialComplex) -> str:
    """Inverse of parse_complex for integer labels ({∅} prints as empty)."""
    if c.facets == (0,):
        return ""
    lines = [" ".join(map(str, face_vertices(f))) for f in c.facets]
    return "\n".join(lines) + "\n"


def all_faces(c: SimplicialComplex) -> list[int]:
    """All faces as a deterministic sorted list (by dimension, then mask)."""
    return sorted(c.faces(), key=_facet_sort_key)
