"""Obstruction catalogs: labels, property vectors, stable JSON, atlas files.

Catalog entries carry a canonical representative of each obstruction class
plus its full property vector.  The twelve edge-minimal two-dimensional
classes get short labels by structural family:

  type 1  two disjoint triangles joined by edges (three classes, "1a" is the
          perfect-matching one),
  type 2  two triangles sharing a vertex plus one cross edge,
  type 3  five-vertex complexes with an apex vertex whose link is two
          disjoint edges (five classes),
  type 4  the triangulated bands on 5, 6 and 7 vertices ("4a".."4c").

Letters inside a family follow canonical-form order except where a class is
pinned by an explicit construction.  Families 1 and 3 live on at most six
vertices, where the canonical form (the least leaf of the
individualization-refinement tree) is a single leaf enumerated exhaustively
and has not changed since the tree was introduced, so their letters cannot
move.  All output is byte-stable: entries are sorted by (vertex count, facet
count, canonical form) and the JSON layout is fixed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .complexes import SimplicialComplex, face_vertices, from_facets
from .enumeration import DEFAULT_MAX_VERTICES, MAX_OBSTRUCTION_VERTICES, _check_bound, _sort_key, edge_minimal, enumerate_obstructions
from .obstruction import obstruction_report
from .partition import band_complex
from .properties import PropertyKind, satisfies

CATALOG_SCHEMA = "shellability-obstruction-catalog/1"

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    label: Optional[str]
    n_vertices: int
    dim: int
    facets: tuple[tuple[int, ...], ...]
    shellable: bool
    partitionable: bool
    sequentially_cm: bool
    obstruction: dict
    strong_obstruction: dict
    edge_minimal: bool

    def as_dict(self) -> dict:
        return asdict(self)


def core_type(c: SimplicialComplex) -> Optional[int]:
    """Structural family of a 2-dimensional obstruction, from its triangle core."""
    core = c.pure_skeleton(2)
    tri = [f for f in core.facets if f.bit_count() == 3]
    if len(tri) == 2:
        overlap = (tri[0] & tri[1]).bit_count()
        if overlap == 0:
            return 1
        if overlap == 1:
            return 2
        return None
    for n in (5, 6, 7):
        if core.n_vertices == n and core.is_isomorphic(band_complex(2, n)):
            return 4
    if core.n_vertices == 5:
        for v in core.vertex_ids():
            at_v = [t for t in tri if t >> v & 1]
            if len(at_v) == 2 and (at_v[0] & at_v[1]) == 1 << v:
                return 3
    return None


def _reference_1a() -> SimplicialComplex:
    return from_facets([{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5}])


def _assign_labels(minimal: list[SimplicialComplex]) -> dict[SimplicialComplex, str]:
    """Short labels for the edge-minimal 2-dimensional classes."""
    by_type: dict[int, list[SimplicialComplex]] = {}
    for c in minimal:
        t = core_type(c)
        if t is not None:
            by_type.setdefault(t, []).append(c)
    labels: dict[SimplicialComplex, str] = {}
    ref_1a = _reference_1a().canonical_form()
    letters = "abcdefghij"
    for t, members in by_type.items():
        # 1a first, then canonical-form order, which puts fewer vertices first
        members.sort(key=lambda c: (c.canonical_form() != ref_1a, c.canonical_form()))
        for i, c in enumerate(members):
            labels[c] = "2" if t == 2 and len(members) == 1 else f"{t}{letters[i]}"
    return labels


def build_entries(complexes: list[SimplicialComplex]) -> list[CatalogEntry]:
    """Catalog entries (sorted, labeled, full property vectors) for obstruction classes."""
    ordered = sorted(complexes, key=_sort_key)
    minimal = {c: c.dim >= 1 and edge_minimal(c) for c in ordered}
    labels = _assign_labels([c for c in ordered if c.dim == 2 and minimal[c]])
    for c in ordered:
        if c.dim == 1 and c.is_isomorphic(from_facets([{0, 1}, {2, 3}])):
            labels[c] = "2K2"
    entries = []
    counters: dict[tuple[int, int], int] = {}
    for c in ordered:
        reports = {prop: obstruction_report(c, prop) for prop in PropertyKind}
        key = (c.dim, c.n_vertices)
        counters[key] = counters.get(key, 0) + 1
        entries.append(CatalogEntry(
            id=f"d{c.dim}-n{c.n_vertices}-{counters[key]:02d}",
            label=labels.get(c),
            n_vertices=c.n_vertices,
            dim=c.dim,
            facets=tuple(face_vertices(f) for f in c.facets),
            shellable=satisfies(c, PropertyKind.SHELLABLE),
            partitionable=satisfies(c, PropertyKind.PARTITIONABLE),
            sequentially_cm=satisfies(c, PropertyKind.SEQUENTIALLY_CM),
            obstruction={prop.value: reports[prop].is_obstruction for prop in PropertyKind},
            strong_obstruction={prop.value: reports[prop].is_strong for prop in PropertyKind},
            edge_minimal=minimal[c],
        ))
    return entries


def catalog_document(entries: list[CatalogEntry], **meta) -> dict:
    doc = {"schema": CATALOG_SCHEMA}
    doc.update(meta)
    doc["count"] = len(entries)
    doc["entries"] = [e.as_dict() for e in entries]
    return doc


def catalog_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def summary_lines(entries: list[CatalogEntry]) -> list[str]:
    lines = []
    header = f"{'id':<12} {'label':<6} {'n':>2} {'facets':>6} {'edge-min':>8} {'strong':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for e in entries:
        lines.append(
            f"{e.id:<12} {e.label or '-':<6} {e.n_vertices:>2} {len(e.facets):>6} "
            f"{'yes' if e.edge_minimal else 'no':>8} "
            f"{'yes' if e.strong_obstruction['shellable'] else 'no':>6}"
        )
    by_label = sorted(e.label for e in entries if e.label)
    lines.append("")
    lines.append(f"total classes: {len(entries)}")
    lines.append(f"labeled (edge-minimal and 2K2): {', '.join(by_label)}")
    return lines


def obstruction_atlas_entries(max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> list[CatalogEntry]:
    """All obstruction classes of dimension <= 2 with full annotations.

    Dimension 1 stops at its own six-vertex bound when max_vertices is
    larger.  Raises CapacityError unless 1 <= max_vertices <= 7.
    """
    _check_bound(max_vertices)
    complexes: list[SimplicialComplex] = []
    for dim, bound in DEFAULT_MAX_VERTICES.items():
        complexes.extend(enumerate_obstructions(dim, max_vertices=min(max_vertices, bound)))
    return build_entries(complexes)


def write_atlas(out_dir: str | Path, max_vertices: int = MAX_OBSTRUCTION_VERTICES) -> list[Path]:
    """Write catalog.json, per-entry facet files and a summary table; returns the paths.

    Removes the facet files in ``complexes/`` that the new catalog does not list.
    A bad bound raises before anything is created, and a directory that
    cannot be made raises before the search runs.
    """
    _check_bound(max_vertices)
    out = Path(out_dir)
    complexes_dir = out / "complexes"
    complexes_dir.mkdir(parents=True, exist_ok=True)
    entries = obstruction_atlas_entries(max_vertices)
    doc = catalog_document(
        entries,
        kind="obstruction-atlas",
        dimensions=[0, 1, 2],
        property="shellable",
        max_vertices=max_vertices,
    )
    paths = []
    catalog_path = out / "catalog.json"
    catalog_path.write_text(catalog_json(doc), encoding="utf-8")
    paths.append(catalog_path)
    for e in entries:
        name = f"{e.id}{'_' + e.label if e.label else ''}.cplx"
        body = "".join(" ".join(map(str, f)) + "\n" for f in e.facets)
        p = complexes_dir / name
        p.write_text(body, encoding="utf-8")
        paths.append(p)
    for stale in complexes_dir.glob("*.cplx"):
        if stale not in paths:
            stale.unlink()
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(summary_lines(entries)) + "\n", encoding="utf-8")
    paths.append(summary_path)
    return paths
