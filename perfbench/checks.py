"""Output checks that do not use the program's own verifiers.

Everything here works on plain facet masks (bit v set means vertex v) and is
written from the definitions, so a defect shared by a decider and its
``verify_*`` function still shows.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import permutations


def _vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def faces_of(facets) -> set[int]:
    out: set[int] = set()
    for f in facets:
        out.update(_subsets(f))
    return out


def is_shelling(facets, ordering) -> bool:
    """True iff the ordering lists the facets once each and is a shelling.

    Definition: every facet after the first meets the union of the earlier
    ones in a pure subcomplex of codimension one, i.e. every maximal
    intersection with an earlier facet has one vertex fewer than the facet.
    """
    ordering = list(ordering)
    if sorted(ordering) != sorted(set(facets)) or len(ordering) != len(set(facets)):
        return False
    for j in range(1, len(ordering)):
        f = ordering[j]
        meets = {f & g for g in ordering[:j]}
        maximal = [m for m in meets if not any(m != o and m & o == m for o in meets)]
        if any(m.bit_count() != f.bit_count() - 1 for m in maximal):
            return False
    return True


def is_interval_partition(facets, assignment) -> bool:
    """True iff the (facet, bottom) pairs tile the face set by disjoint intervals."""
    pairs = [(int(sigma), int(tau)) for sigma, tau in assignment]
    if sorted(s for s, _ in pairs) != sorted(set(facets)):
        return False
    seen: set[int] = set()
    for sigma, tau in pairs:
        if tau & ~sigma:
            return False
        for extra in _subsets(sigma & ~tau):
            if tau | extra in seen:
                return False
            seen.add(tau | extra)
    return seen == faces_of(facets)


def canonical_key(facets) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-class key by brute force over all vertex bijections.

    Meant for the small complexes of the atlas (at most seven vertices).
    """
    support = 0
    for f in facets:
        support |= f
    verts = _vertices(support)
    vertex_lists = [[verts.index(v) for v in _vertices(f)] for f in facets]
    best = None
    for perm in permutations(range(len(verts))):
        key = sorted(sum(1 << perm[v] for v in vs) for vs in vertex_lists)
        if best is None or key < best:
            best = key
    return len(verts), tuple(best or ())


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def atlas_fingerprint(doc: dict) -> dict:
    """Isomorphism-invariant summary of an atlas catalog document.

    Class identity is the brute-force canonical key, so a change of
    representative, of entry order or of ids leaves the fingerprint alone,
    while a dropped, added or re-annotated class changes it.
    """
    entries = doc["entries"]
    rows = []
    cores: dict[int, set] = {}
    for e in entries:
        facets = [sum(1 << v for v in f) for f in e["facets"]]
        rows.append([
            e["dim"], list(canonical_key(facets)), e["label"],
            e["shellable"], e["partitionable"], e["sequentially_cm"],
            sorted(e["obstruction"].items()), sorted(e["strong_obstruction"].items()),
            e["edge_minimal"],
        ])
        if e["dim"] == 2:
            triangles = [f for f in facets if f.bit_count() == 3]
            key = canonical_key(triangles)
            cores.setdefault(key[0], set()).add(key)
    rows.sort(key=json.dumps)
    minimal = sorted(e["label"] or "?" for e in entries if e["dim"] == 2 and e["edge_minimal"])
    strong = [e for e in entries if e["strong_obstruction"]["shellable"]]
    max_vertices = doc.get("max_vertices", 0)
    return {
        "classes_by_dim": {str(d): sum(1 for e in entries if e["dim"] == d) for d in (0, 1, 2)},
        "edge_minimal_labels": minimal,
        "edge_minimal_families": dict(sorted(Counter(label[0] for label in minimal).items())),
        "strong_labels": sorted(e["label"] for e in strong if e["label"]),
        "strong_count": len(strong),
        "cores_by_support": {str(s): len(cores.get(s, ())) for s in range(4, max_vertices + 1)},
        "classes_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


def check_atlas(doc: dict, expected: dict) -> list[str]:
    """Differences between an atlas document and the expected fingerprint."""
    problems = []
    for e in doc["entries"]:
        if e["shellable"] or e["partitionable"] or e["sequentially_cm"]:
            problems.append(f"{e['id']}: an obstruction satisfies a property")
        if not all(e["obstruction"].values()):
            problems.append(f"{e['id']}: not an obstruction to every property")
    got = atlas_fingerprint(doc)
    for key, want in expected.items():
        if got.get(key) != want:
            problems.append(f"{key}: expected {want!r}, got {got.get(key)!r}")
    return problems


# ---------------------------------------------------------------------------
# independence complexes of cycles
# ---------------------------------------------------------------------------

def check_indcycle(cases: list[dict], n_max: int) -> list[str]:
    """Ind(C_n) for 4 <= n <= n_max: strong obstruction iff n != 5, dim floor(n/2) - 1."""
    problems = []
    if [c["n"] for c in cases] != list(range(4, n_max + 1)):
        problems.append(f"cases cover {[c['n'] for c in cases]}, expected 4..{n_max}")
    for c in cases:
        n = c["n"]
        expected = n != 5
        if not c["ok"]:
            problems.append(f"n={n}: case not ok")
        if c["dim"] != n // 2 - 1:
            problems.append(f"n={n}: dim {c['dim']}, expected {n // 2 - 1}")
        if c["is_obstruction"] != expected or c["is_strong"] != expected:
            problems.append(f"n={n}: obstruction {c['is_obstruction']}, strong {c['is_strong']}")
        if c["shellable"] == expected:
            problems.append(f"n={n}: shellable {c['shellable']}")
        if c["shellable"] and not (c["partitionable"] and c["sequentially_cm"]):
            problems.append(f"n={n}: shellable but not partitionable and SCM")
    return problems


# ---------------------------------------------------------------------------
# corpus queries
# ---------------------------------------------------------------------------

def check_query(facets: list[int], answer: dict, reference) -> list[str]:
    """Problems with one answered query: certificates, implication law, reference."""
    problems = []
    s, p, c = answer["shellable"], answer["partitionable"], answer["sequentially_cm"]
    if s:
        if not is_shelling(facets, answer.get("ordering") or ()):
            problems.append("shelling certificate rejected")
    if p:
        if not is_interval_partition(facets, answer.get("intervals") or ()):
            problems.append("interval certificate rejected")
    if not c:
        w = answer.get("witness")
        if w is None or w["face"] not in faces_of(facets):
            problems.append("homology witness missing or not a face")
    if s and not (p and c):
        problems.append("implication law: shellable but not partitionable and SCM")
    if reference is not None and [s, p, c] != list(reference):
        problems.append(f"verdicts {[s, p, c]} differ from reference {list(reference)}")
    return problems


if __name__ == "__main__":
    import sys

    # Print the fingerprint of an atlas catalog.json: the "fingerprint" part
    # of an entry of reference.json.
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(atlas_fingerprint(json.load(fh)), indent=1))
