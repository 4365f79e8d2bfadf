import os
import signal
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

import shellability
from shellability import cache, enumeration
from shellability.catalog import (
    build_entries,
    catalog_document,
    catalog_json,
    core_type,
)
from shellability.complexes import CapacityError, SimplicialComplex, from_facets, union
from shellability.enumeration import (
    _admissible_links,
    _automorphisms,
    _cone_extension_shellable,
    _deficit_groups,
    _face_pair_mask,
    _pair_tables,
    _scan_level,
    _sort_key,
    dim2_shellability_obstructions,
    edge_minimal,
    enumerate_obstructions,
    generic_obstructions,
    triangle_cores,
    verify_coincidence,
    verify_edge_addition_closure,
)
from shellability.obstruction import obstruction_report
from shellability.partition import band_complex
from shellability.properties import PropertyKind
from shellability.shelling import is_shellable

from conftest import entry_complex, is_connected
from oracles import (
    _known,
    _pad_isolated,
    _register_cores,
    _star_removed,
    _triangle_components,
    brute_force_automorphisms,
    edge_growth_obstructions,
    enumerate_complexes,
    enumerate_dim2_complexes,
    generic_dim2_obstructions,
    greedy_cone_extension_shellable,
    register_sources,
    source_lookup_known,
    two_k2_free_graph_classes,
    unpruned_scan_level,
)

SH = PropertyKind.SHELLABLE


def brute_edge_set_classes(n: int, no_isolated: bool) -> int:
    """Reference count of 1-dimensional classes via labeled edge sets."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        covered = {v for e in edges for v in e}
        if no_isolated and len(covered) != n:
            continue
        key = min(
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            for perm in permutations(range(n))
        )
        seen.add((key, len(covered)))
    return len(seen)


def test_enumerate_complexes_dimension_zero():
    assert len(enumerate_complexes(0, 3)) == 1
    assert enumerate_complexes(0, 3)[0].f_vector() == [1, 3]


def test_enumerate_complexes_dimension_one_counts():
    """Smaller edge supports pad out with isolated vertices as 0-facets; the
    classes without 0-facets are the graphs without isolated vertices."""
    counts = {}
    for n in (3, 4, 5):
        classes = enumerate_complexes(1, n)
        edges_only = [c for c in classes if all(f.bit_count() == 2 for f in c.facets)]
        counts[n] = (len(classes), len(edges_only))
        assert len(classes) == brute_edge_set_classes(n, no_isolated=False)
        assert len(edges_only) == brute_edge_set_classes(n, no_isolated=True)
    assert counts == {3: (3, 2), 4: (10, 7), 5: (33, 23)}


def test_enumerate_complexes_guards():
    with pytest.raises(CapacityError):
        enumerate_complexes(3, 4)
    with pytest.raises(CapacityError):
        enumerate_complexes(2, 7)
    with pytest.raises(CapacityError):
        enumerate_complexes(1, 8)
    # dimension 2 is the pruned pipeline's alone
    with pytest.raises(CapacityError):
        enumerate_complexes(2, 5)
    with pytest.raises(CapacityError):
        generic_obstructions(2, 5, SH)
    for bound in (0, 8):
        with pytest.raises(CapacityError, match="max_vertices must be 1..7"):
            generic_obstructions(1, bound, SH)
    with pytest.raises(CapacityError):
        enumerate_dim2_complexes(7)


def test_pad_isolated_rejects_a_complex_on_more_vertices_at_once():
    """Padding to fewer vertices than the complex has raises before the
    padding loop, which would count down from a negative number for ever;
    a complex already on n vertices comes back unchanged."""
    def stuck(signum, frame):
        raise TimeoutError("_pad_isolated did not return")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="cannot be padded"):
            _pad_isolated(from_facets([0b111]), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    triangle = from_facets([0b111])
    assert _pad_isolated(triangle, 3) is triangle


def test_enumerate_complexes_all_have_exact_vertex_count_and_dim():
    for c in enumerate_dim2_complexes(5):
        assert c.n_vertices == 5 and c.dim == 2
    for c in enumerate_complexes(1, 5):
        assert c.n_vertices == 5 and c.dim == 1


def test_triangle_cores_by_support():
    cores = triangle_cores(6)
    assert {s: len(v) for s, v in cores.items()} == {4: 0, 5: 7, 6: 2}
    reps = [from_facets(rep) for rep in cores[5]]
    assert any(r.is_isomorphic(band_complex(2, 5)) for r in reps)
    reps6 = [from_facets(rep) for rep in cores[6]]
    assert any(r.is_isomorphic(band_complex(2, 6)) for r in reps6)
    assert any(r.is_isomorphic(from_facets([{0, 1, 2}, {3, 4, 5}])) for r in reps6)


def test_triangle_cores_hands_out_a_copy():
    first = triangle_cores(5)
    first[5].append(((0b111),))
    first[6] = []
    assert {s: len(v) for s, v in triangle_cores(5).items()} == {4: 0, 5: 7}


def test_dim0_and_dim1_obstructions(two_k2):
    assert enumerate_obstructions(0) == []
    found = enumerate_obstructions(1)
    assert len(found) == 1 and found[0].is_isomorphic(two_k2)
    for prop in PropertyKind:
        found = enumerate_obstructions(1, prop)
        assert len(found) == 1 and found[0].is_isomorphic(two_k2)


def test_dim1_four_vertex_bound_suffices(two_k2):
    found = enumerate_obstructions(1, SH, max_vertices=4)
    assert len(found) == 1 and found[0].is_isomorphic(two_k2)


def test_generic_and_pruned_paths_agree_to_five():
    gen = {c.canonical_form() for c in generic_dim2_obstructions(5, SH)}
    pruned = {c.canonical_form() for c in dim2_shellability_obstructions(5)}
    assert gen == pruned
    assert len(gen) == 14


def test_generic_and_pruned_paths_agree_to_six():
    gen = {c.canonical_form() for c in generic_dim2_obstructions(6, SH)}
    pruned = {c.canonical_form() for c in dim2_shellability_obstructions(6)}
    assert gen == pruned
    assert len(gen) == 34


def test_pruning_lemmas_hold_post_hoc():
    """Every found obstruction is connected, has no 0-facets, and has at
    least two triangles; the search's pruning assumptions, re-checked."""
    for c in dim2_shellability_obstructions(6):
        assert is_connected(c)
        assert all(f.bit_count() >= 2 for f in c.facets)
        assert sum(1 for f in c.facets if f.bit_count() == 3) >= 2


def test_edge_minimality_flag(complex_1a, complex_2):
    assert edge_minimal(complex_1a)
    assert edge_minimal(complex_2)
    assert edge_minimal(band_complex(2, 5))
    with_extra = from_facets(list(complex_1a.facets) + [{0, 4}])
    assert not edge_minimal(with_extra)


def test_core_types(complex_1a, complex_2, delta5):
    assert core_type(complex_1a) == 1
    assert core_type(complex_2) == 2
    assert core_type(delta5) == 4
    apex = from_facets([{0, 1, 2}, {0, 3, 4}, {1, 2, 3}])
    assert core_type(apex) == 3


def test_verify_coincidence_low_dimensions():
    for dim in (0, 1):
        report = verify_coincidence(dim)
        assert report.ok
    report = verify_coincidence(2, max_vertices=6)
    assert report.ok and report.class_count == 34


def test_edge_addition_closure_small():
    report = verify_edge_addition_closure(6)
    assert report.ok
    assert report.obstructions == 34
    assert report.augmentations_checked > 60


@pytest.mark.parametrize("dim, prop, mode, max_vertices, error, message", [
    (3, SH, "obstructions", None, CapacityError, "dimensions 0..2"),
    (2, SH, "bogus", None, ValueError, "unknown mode 'bogus'"),
    (0, SH, "edge_minimal_obstructions", None, ValueError, "2-dimensional"),
    (1, SH, "edge_minimal_obstructions", None, ValueError, "2-dimensional"),
    (1, SH, "obstructions", 0, CapacityError, "max_vertices must be 1..7"),
    (2, SH, "obstructions", 0, CapacityError, "max_vertices must be 1..7"),
    (1, SH, "obstructions", 8, CapacityError, "max_vertices must be 1..7"),
    (2, SH, "edge_minimal_obstructions", 8, CapacityError, "max_vertices must be 1..7"),
    (1, SH, "obstructions", True, TypeError, "max_vertices must be an int, got True"),
    (2, SH, "obstructions", 6.5, TypeError, "max_vertices must be an int, got 6.5"),
    (1, "partitionable", "obstructions", None, ValueError, "unknown property 'partitionable'"),
    (2, "shellable", "obstructions", None, ValueError, "unknown property 'shellable'"),
    (0, None, "obstructions", 3, ValueError, "unknown property None"),
], ids=["dim-3", "unknown-mode", "edge-minimal-dim-0", "edge-minimal-dim-1",
        "bound-0-dim-1", "bound-0-dim-2", "bound-8-dim-1", "bound-8-dim-2", "bound-true", "bound-float",
        "property-name-dim-1", "property-name-dim-2", "property-none"])
def test_enumerate_obstructions_checks_its_arguments_before_any_search(
    monkeypatch, dim, prop, mode, max_vertices, error, message
):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    for name in ("generic_obstructions", "dim2_shellability_obstructions", "triangle_cores", "_graph_level"):
        monkeypatch.setattr(enumeration, name, no_search)
    with pytest.raises(error, match=message):
        enumerate_obstructions(dim, prop, mode, max_vertices)


@pytest.mark.parametrize("max_vertices, error, message", [
    (0, CapacityError, "max_vertices must be 1..7"),
    (8, CapacityError, "max_vertices must be 1..7"),
    (True, TypeError, "max_vertices must be an int, got True"),
    (6.5, TypeError, "max_vertices must be an int, got 6.5"),
], ids=["bound-0", "bound-8", "bound-true", "bound-float"])
@pytest.mark.parametrize("search", [triangle_cores, dim2_shellability_obstructions, verify_edge_addition_closure])
def test_the_dimension_two_searches_check_their_bound_before_any_scan(monkeypatch, search, max_vertices, error, message):
    def no_scan(*args, **kwargs):
        raise AssertionError("a level was scanned")

    monkeypatch.setattr(enumeration, "_scan_level", no_scan)
    with pytest.raises(error, match=message):
        search(max_vertices)


def _recorded_levels(monkeypatch) -> list[tuple[int, int, int, bool]]:
    """Route the dimension 0-1 search's level scans through a recorder of
    (n, hereditary classes, obstructions, top) per scan."""
    levels = []
    original = enumeration._graph_level

    def recording(dim, sources, n, lower, prop, top):
        hereditary, found = original(dim, sources, n, lower, prop, top)
        levels.append((n, len(hereditary), len(found), top))
        return hereditary, found

    monkeypatch.setattr(enumeration, "_graph_level", recording)
    return levels


def test_generic_obstructions_scans_each_level_once(monkeypatch):
    """One call scans each vertex count 1..bound once, in order, and only
    the bound as the top level, which emits no hereditary classes."""
    levels = _recorded_levels(monkeypatch)
    for dim, bound in ((1, 6), (0, 7), (1, 1)):
        for prop in PropertyKind:
            levels.clear()
            generic_obstructions(dim, bound, prop)
            assert [(n, top) for n, _, _, top in levels] == [(n, n == bound) for n in range(1, bound + 1)]
            assert levels[-1][1] == 0


def test_generic_obstructions_hereditary_classes_per_level(monkeypatch):
    """The hereditary classes of each level below the bound are the graphs
    with no induced 2K2 in dimension 1, counted here by brute force over
    labelled graphs, and the n isolated vertices in dimension 0."""
    levels = _recorded_levels(monkeypatch)
    expected = [two_k2_free_graph_classes(n) for n in range(1, 7)]
    assert expected == [1, 2, 4, 10, 28, 100]
    for prop in PropertyKind:
        levels.clear()
        generic_obstructions(1, 7, prop)
        assert [h for _, h, _, _ in levels] == expected + [0]
        assert [f for _, _, f, _ in levels] == [0, 0, 0, 1, 0, 0, 0]
    levels.clear()
    generic_obstructions(0, 7, SH)
    assert [h for _, h, _, _ in levels] == [1] * 6 + [0]


def test_the_top_level_labels_only_the_candidates_that_fail(monkeypatch):
    """At the bound the search decides P on each raw candidate first and
    labels only the candidates that fail it; below the bound it labels every
    candidate that passes the mask test.  Labelings inside the deciders are
    theirs and are not counted."""
    deciding = [0]
    verdicts: dict[int, tuple[SimplicialComplex, bool]] = {}
    labelled: list[SimplicialComplex] = []
    original_satisfies = enumeration.satisfies
    original_canonical_form = SimplicialComplex.canonical_form

    def recording_satisfies(c, prop):
        deciding[0] += 1
        try:
            verdict = original_satisfies(c, prop)
        finally:
            deciding[0] -= 1
        verdicts[id(c)] = (c, verdict)
        return verdict

    def recording_canonical_form(self):
        if not deciding[0]:
            labelled.append(self)
        return original_canonical_form(self)

    monkeypatch.setattr(enumeration, "satisfies", recording_satisfies)
    monkeypatch.setattr(SimplicialComplex, "canonical_form", recording_canonical_form)
    for prop in PropertyKind:
        sources, lower = [(0,)], []
        for n in range(1, 7):
            labelled.clear()
            below = enumeration._graph_level(1, sources, n, lower, prop, False)
            below_labels = len(labelled)
            labelled.clear()
            verdicts.clear()
            top = enumeration._graph_level(1, sources, n, lower, prop, True)
            assert top[0] == []
            assert [c.facets for c in top[1]] == [c.facets for c in below[1]]
            assert all(verdicts[id(c)][0] is c and verdicts[id(c)][1] is False for c in labelled), (prop, n)
            assert len(labelled) == (1 if n == 4 else 0), (prop, n)
            assert below_labels >= len(below[0]) + len(below[1])
            sources, lower = below[0], lower + below[1]


def test_face_numbering_puts_the_faces_at_the_new_vertex_last():
    """Both searches number faces by top vertex first.  The triangles follow
    the pairs below their top vertex, so the star of a link d is
    d << star_shift; in dimensions 0-1 the new vertex comes before its edges
    {u, new} in the order of u, so attaching a neighbourhood nb adds
    (1 | nb << 1) << shift to the code."""
    for s in range(1, 8):
        triangles = enumeration._face_index(s, (3,))
        assert list(triangles) == [(1 << a) | (1 << b) | (1 << c) for c in range(s) for a, b in combinations(range(c), 2)]
        index = enumeration._face_index(s, (1, 2))
        shift, new = len(index) - s, s - 1
        assert sorted(index.values()) == list(range(s * (s + 1) // 2))
        points = tuple(1 << u for u in range(new))
        for nb in range(1 << new):
            star = tuple((1 << u) | (1 << new) for u in range(new) if nb >> u & 1) + (1 << new,)
            code = enumeration._code(points + star, index)
            assert code == enumeration._code(points, index) | (1 | nb << 1) << shift


def test_generic_obstructions_match_the_per_count_filter():
    """The vertex-by-vertex search gives what filtering the classes of each
    count grown edge by edge gives, in the same order."""
    for dim in (0, 1):
        for prop in PropertyKind:
            for bound in range(1, 7):
                got = generic_obstructions(dim, bound, prop)
                expected = edge_growth_obstructions(dim, bound, prop)
                assert [c.facets for c in got] == [c.facets for c in expected], (dim, prop, bound)


@pytest.mark.slow
def test_generic_obstructions_match_the_per_count_filter_at_seven():
    got = generic_obstructions(1, 7, SH)
    expected = edge_growth_obstructions(1, 7, SH)
    assert [c.facets for c in got] == [c.facets for c in expected]
    assert len(got) == 1


def test_strong_mode_and_minimal_mode():
    strong = enumerate_obstructions(2, SH, "strong_obstructions", 6)
    minimal = enumerate_obstructions(2, SH, "edge_minimal_obstructions", 6)
    all6 = dim2_shellability_obstructions(6)
    assert {c.canonical_form() for c in strong} <= {c.canonical_form() for c in all6}
    by_type = {}
    for c in minimal:
        by_type.setdefault(core_type(c), []).append(c)
    assert {t: len(v) for t, v in sorted(by_type.items())} == {1: 3, 2: 1, 3: 5, 4: 2}


def test_catalog_entries_are_stable_and_labeled():
    entries = build_entries(dim2_shellability_obstructions(6))
    labels = sorted(e.label for e in entries if e.label)
    assert labels == ["1a", "1b", "1c", "2", "3a", "3b", "3c", "3d", "3e", "4a", "4b"]
    doc1 = catalog_json(catalog_document(entries, kind="test"))
    doc2 = catalog_json(catalog_document(build_entries(dim2_shellability_obstructions(6)), kind="test"))
    assert doc1 == doc2
    for e in entries:
        assert not e.shellable and not e.partitionable and not e.sequentially_cm
        assert e.obstruction == {"shellable": True, "partitionable": True, "scm": True}
        c = entry_complex(e)
        assert c.canonical_form().facets == c.facets  # the class's canonical representative


# Facet lists of the lettered classes in the 6-vertex catalog.  Letters inside
# a family follow canonical-form order, so a change of key must not move them.
LETTERED_CLASSES = {
    "1b": [[0, 1], [0, 2], [1, 3], [2, 3], [1, 2, 4], [0, 3, 5]],
    "1c": [[0, 1], [0, 2], [1, 3], [2, 4], [0, 3, 4], [1, 2, 5]],
    "3a": [[0, 1, 2], [1, 2, 3], [1, 2, 4], [0, 3, 4], [1, 3, 4], [2, 3, 4]],
    "3b": [[0, 1, 2], [1, 2, 4], [0, 3, 4], [1, 3, 4], [2, 3, 4]],
    "3c": [[0, 1, 2], [0, 3, 4], [1, 3, 4], [2, 3, 4]],
    "3d": [[0, 1, 2], [1, 3, 4], [2, 3, 4]],
    "3e": [[0, 1, 3], [0, 2, 4], [1, 3, 4], [2, 3, 4]],
}


def test_family_letters_are_pinned():
    minimal = enumerate_obstructions(2, SH, "edge_minimal_obstructions", 6)
    by_label = {e.label: entry_complex(e) for e in build_entries(minimal)}
    for label, facets in LETTERED_CLASSES.items():
        assert by_label[label].is_isomorphic(from_facets([set(f) for f in facets])), label


def test_catalog_sorted_by_size():
    entries = build_entries(dim2_shellability_obstructions(6))
    keys = [(e.n_vertices, len(e.facets)) for e in entries]
    assert keys == sorted(keys)


def test_level_scan_matches_the_unpruned_scan():
    """The minimum-degree level scan finds every class the unpruned scan finds,
    and the terminal scan, which skips certified candidates and emits no
    hereditary classes, finds the same cores."""
    hereditary = {3: [((0b111),)]}
    sources = [(), ((0b111),)]
    lower = []
    for s in (4, 5, 6):
        plain_hereditary, plain_cores = unpruned_scan_level(hereditary, s)
        h, cores = _scan_level(sources, s, lower, terminal=False)
        assert h == sorted(plain_hereditary)
        assert cores == sorted(plain_cores)
        assert (len(h), len(cores)) == {4: (3, 0), 5: (22, 7), 6: (811, 2)}[s]
        if s >= 5:
            assert _scan_level(sources, s, lower, terminal=True) == ([], cores)
        hereditary[s] = h
        sources = sources + h
        lower = lower + cores
    assert len(cores) == 2


def _level_sources(s: int) -> list[tuple[int, ...]]:
    """The sources of level s: every hereditarily shellable class below it,
    read from the source-level entries (level, False) of the core memo.  A
    bound's top level is scanned for cores only, so these are scanned here
    when no larger bound has scanned them yet."""
    sources, lower = [(), ((0b111),)], []
    for level in range(4, s):
        hereditary, cores = cache.memo(enumeration._CORES_MEMO, (level, False),
                                       _scan_level, sources, level, lower, False)
        sources, lower = sources + hereditary, lower + cores
    return sources


def _lower_cores(s: int) -> list[tuple[int, ...]]:
    """The lower cores of level s: every core below it."""
    return [core for cores in triangle_cores(s - 1).values() for core in cores]


def test_importing_the_package_does_not_import_multiprocessing():
    """Every scan runs in this process, so nothing imports the pool's module."""
    code = ("import sys, shellability, shellability.cli; "
            "sys.exit(3 if 'multiprocessing' in sys.modules else 0)")
    src = str(Path(shellability.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_deficit_table_gives_the_minimum_degree_links():
    """Per (degree vector, extras) key of a level's real sources, the links read
    from the deficit table are exactly those the per-link cover and
    minimum-degree tests accept."""
    for s in (5, 6, 7):
        tables = _pair_tables(s)
        groups = _deficit_groups(tables)
        every = range(1, 1 << tables.n_pairs)
        keys = set()
        for x in _level_sources(s):
            deg = tuple(sum(1 for t in x if t >> u & 1) for u in range(s - 1))
            keys.add((deg, ((1 << (s - 1)) - 1) & ~union(x)))
        assert len(keys) == {5: 5, 6: 26, 7: 329}[s]
        # the per-link tests, each evaluated once per (vertex, degree) or
        # extras value that the keys use, then intersected per key
        covering, not_below = {}, {}
        for deg, extras in keys:
            if extras not in covering:
                covering[extras] = {d for d in every if tables.cover[d] & extras == extras}
            for u in range(s - 1):
                if (u, deg[u]) not in not_below:
                    not_below[u, deg[u]] = {
                        d for d in every if deg[u] + (d & tables.at_vertex[u]).bit_count() >= d.bit_count()
                    }
        for deg, extras in keys:
            expected = covering[extras].intersection(*(not_below[u, deg[u]] for u in range(s - 1)))
            links = _admissible_links(groups, deg, extras, tables)
            assert len(links) == len(expected) and set(links) == expected


def test_scan_decides_shellability_once_per_core(monkeypatch):
    """Below the top level the cone-extension certificate settles every
    hereditary class, so the shelling search runs on the cores only."""
    calls = []
    decide = enumeration.is_shellable

    def counted(c):
        calls.append(c)
        return decide(c)

    monkeypatch.setattr(enumeration, "is_shellable", counted)
    sources = [(), ((0b111),)]
    lower = []
    for s in (4, 5, 6):
        calls.clear()
        h, cores = _scan_level(sources, s, lower, terminal=False)
        assert len(calls) == len(cores) == {4: 0, 5: 7, 6: 2}[s]
        sources = sources + h
        lower = lower + cores


def _degrees_and_extras(x: tuple[int, ...], s: int) -> tuple[tuple[int, ...], int]:
    deg = tuple(sum(1 for t in x if t >> u & 1) for u in range(s - 1))
    return deg, ((1 << (s - 1)) - 1) & ~union(x)


def _link_image(d: int, perm: tuple[int, ...], tables) -> int:
    """The link mask d with every pair {a, b} replaced by {perm[a], perm[b]}."""
    out = 0
    for i, (a, b) in enumerate(tables.ends):
        if d >> i & 1:
            out |= 1 << tables.pairs.index((1 << perm[a]) | (1 << perm[b]))
    return out


def _labelled_links(monkeypatch, sources, s, terminal):
    """Run one level scan and record, per source, the links whose candidates
    it labels.  A candidate is built as the source's triangles followed by the
    new vertex's star; the only other complex the scan builds is a core's
    canonical rep, handed straight to the shelling search, so the complex
    built last before each search is dropped again."""
    labelled = {x: [] for x in sources}
    built = []
    pairs = _pair_tables(s).pairs
    v_bit = 1 << (s - 1)
    build, decide = enumeration.from_facets, enumeration.is_shellable

    def building(facets):
        built.append(facets)
        return build(facets)

    def deciding(c):
        built.pop()
        return decide(c)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "from_facets", building)
        patch.setattr(enumeration, "is_shellable", deciding)
        _scan_level(sources, s, _lower_cores(s), terminal)
    for facets in built:
        star = [f ^ v_bit for f in facets if f & v_bit]
        labelled[facets[:-len(star)]].append(sum(1 << pairs.index(p) for p in star))
    return labelled


def test_source_automorphisms_match_brute_force(monkeypatch):
    """The scan's automorphism helper finds exactly the permutations that map a
    source's triangles onto themselves.  The links whose candidates the scan
    labels are one per orbit of those automorphisms among the links that pass
    both cheap tests (not certified at the top level, no restriction a copy of
    a lower core), each the first of its orbit in scan order, and their orbits
    cover every such link.  On the s = 7 share no link passes both."""
    for s in (5, 6, 7):
        sources = _level_sources(s)
        tables = _pair_tables(s)
        groups = _deficit_groups(tables)
        _, around, copies = enumeration._copy_test_tables(s, _lower_cores(s), (3,))
        terminal = s == 7
        if s < 7:
            share = sources
        else:
            # the terminal scan of all 838 sources, and the 720 permutations
            # the oracle tries on each, would slow the suite; a fixed slice
            assert len(sources) == 838
            share = sources[3::20]
            assert len(share) == 42
        labelled = _labelled_links(monkeypatch, share, s, terminal)
        assert sum(map(len, labelled.values())) == {5: 32, 6: 1069, 7: 0}[s]
        for x in share:
            deg, extras = _degrees_and_extras(x, s)
            auts = brute_force_automorphisms(x, s - 1)
            assert sorted(_automorphisms(x, deg)) == sorted(auts)
            links = _admissible_links(groups, deg, extras, tables)
            face_mask, base = _face_pair_mask(x, tables), enumeration._code(x, tables.index)
            passing = [
                d for d in links
                if not (terminal and _cone_extension_shellable(d, face_mask, tables))
                and not enumeration._has_core_copy(base | d << tables.star_shift, around, copies)
            ]
            position = {d: i for i, d in enumerate(links)}
            first = [d for d in passing if all(position[_link_image(d, g, tables)] >= position[d] for g in auts)]
            reps = labelled[x]
            assert reps == first
            orbits = [{_link_image(d, g, tables) for g in auts} for d in reps]
            assert set().union(*orbits) == set(passing)
            assert sum(map(len, orbits)) == len(passing)  # one link per orbit


def _triangles(mask: int, s: int) -> tuple[int, ...]:
    """The triangle set of a mask over level s's triangle numbering."""
    return tuple(sorted(t for t, i in _pair_tables(s).index.items() if mask >> i & 1))


def test_mask_test_matches_the_star_removal_tests(monkeypatch):
    """The scan's hereditary test, whether a restriction of a candidate is a
    labelled copy of a lower core, gives the verdict of the two tests it
    replaced: no restriction of a star removal is isomorphic to a lower core,
    found through invariants, and every star removal is a hereditarily
    shellable class below the level.  Checked on every candidate and new
    class the s = 5 and 6 scans test and on a fixed share of the s = 7 scan,
    where some candidates are rejected only for a 6-vertex core, which no
    5-vertex core reveals."""
    cache.clear_all_caches()  # every oracle verdict below comes from this test's scans
    has_copy = enumeration._has_core_copy
    five_cores = triangle_cores(5)[5]
    for s, terminal, share in ((5, False, slice(None)), (6, False, slice(None)), (7, True, slice(3, None, 20))):
        sources, lower = _level_sources(s), _lower_cores(s)
        every = len(enumeration._copy_test_tables(s, lower, (3,))[0])
        calls = []

        def recorded(mask, restrictions, copies):
            # a new class's rep is tested on every proper vertex set, a
            # candidate only on those that hold its new vertex s - 1 (at
            # s = 5 there is no vertex set to test, and no lower core)
            calls.append((mask, len(restrictions) == every, has_copy(mask, restrictions, copies)))
            return calls[-1][2]

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_has_core_copy", recorded)
            _scan_level(sources[share], s, lower, terminal)
        sizes = _register_cores(lower)
        register_sources(sources)
        by_six = []
        for mask, rep, rejected in calls:
            triangles = _triangles(mask, s)
            removals = [_star_removed(triangles, u) for u in range(s if rep else s - 1)]
            assert rejected != all(_known(r, sizes) for r in removals), triangles
            assert rejected != all(map(source_lookup_known, removals)), triangles
            if rejected and not has_copy(mask, enumeration._restrictions(s, (3,)).values(),
                                         enumeration._core_copies(s, five_cores, (3,))):
                by_six.append(triangles)
        counts = (len(calls), sum(rejected for _, _, rejected in calls), len(by_six))
        assert counts == {5: (54, 0, 0), 6: (6307, 4427, 0), 7: (47873, 47873, 2)}[s], counts


def test_scan_rejects_a_permutation_that_is_not_an_automorphism(monkeypatch):
    """A wrong automorphism, which maps an admissible link of a source to one
    that is not, stops the scan instead of skipping links."""
    def reversal(xprime, deg):
        return [tuple(range(len(deg))), tuple(reversed(range(len(deg))))]

    monkeypatch.setattr(enumeration, "_automorphisms", reversal)
    with pytest.raises(RuntimeError, match="an automorphism of a source maps an admissible link"):
        _scan_level(_level_sources(5), 5, _lower_cores(5), terminal=False)


def test_scan_rechecks_the_star_removals_of_a_new_class(monkeypatch):
    """Below the top level every star removal of a new class, the last one
    included, must be hereditarily shellable; here the restriction of each
    6-vertex hereditary class to its first five vertices is made a copy of a
    core, and the scan stops."""
    sources = _level_sources(6)
    tables = _pair_tables(6)
    first_five = enumeration._restrictions(6, (3,))[0b11111]
    extra = {enumeration._code(rep, tables.index) & first_five for rep in _level_sources(7)[len(sources):]}
    core_copies = enumeration._core_copies
    monkeypatch.setattr(enumeration, "_core_copies", lambda *args: core_copies(*args) | extra)
    with pytest.raises(RuntimeError, match="a star removal of a new class is not hereditarily shellable"):
        _scan_level(sources, 6, _lower_cores(6), terminal=False)


def test_scan_attaches_one_link_per_source_orbit(monkeypatch):
    """Of the admissible links (7, 127 and 9188 at s = 4, 5, 6), the cheap
    tests see those not in the orbit of a link that passed them earlier (3, 32,
    5496); of the links that pass, only one per automorphism orbit of each
    source is built and labelled.  The complexes built are those candidates
    (3, 32, 1069) and the cores' reps handed to the shelling search (0, 7, 2)."""
    calls = {"from_facets": 0, "_cone_extension_shellable": 0, "is_shellable": 0}
    for name in calls:
        def counted(*args, name=name, f=getattr(enumeration, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(enumeration, name, counted)
    sources = [(), ((0b111),)]
    lower = []
    for s in (4, 5, 6):
        tables = _pair_tables(s)
        groups = _deficit_groups(tables)
        admissible = sum(len(_admissible_links(groups, *_degrees_and_extras(x, s), tables)) for x in sources)
        calls.update(dict.fromkeys(calls, 0))
        h, cores = _scan_level(sources, s, lower, terminal=False)
        assert admissible == {4: 7, 5: 127, 6: 9188}[s]
        assert calls["_cone_extension_shellable"] == {4: 3, 5: 32, 6: 5496}[s]
        assert calls["from_facets"] == {4: 3, 5: 39, 6: 1071}[s]
        assert calls["is_shellable"] == len(cores) == {4: 0, 5: 7, 6: 2}[s]
        sources = sources + h
        lower = lower + cores


def test_each_core_level_is_scanned_once(monkeypatch):
    """Each level is scanned once, whatever bound asks for it: a bound scans
    its top level for cores only and every level below it as a source level,
    and a smaller bound asked for later reads its top level's cores from the
    source-level scan, since the cores do not depend on the top flag."""
    monkeypatch.setattr(enumeration, "_CORES_MEMO", {})
    monkeypatch.setattr(enumeration, "_DIM2_MEMO", {})
    levels = []
    scan = enumeration._scan_level

    def logged(sources, s, lower, terminal):
        levels.append((s, terminal))
        return scan(sources, s, lower, terminal)

    monkeypatch.setattr(enumeration, "_scan_level", logged)
    triangle_cores(6)
    assert {s: len(v) for s, v in triangle_cores(5).items()} == {4: 0, 5: 7}
    dim2_shellability_obstructions(5)
    triangle_cores(6)
    dim2_shellability_obstructions(6)
    assert levels == [(4, False), (5, False), (6, True)]


def test_a_larger_bound_rescans_the_old_top_level_as_a_source_level(monkeypatch):
    """A bound's top level emits its cores and no hereditary classes.  In a
    cleared memo each bound gives the cores of the source-level scans, and a
    larger bound asked for after a smaller one scans the smaller one's top
    level again as a source level, so the next level receives every source:
    the 2 seeds and the 3 + 22 hereditary classes on four and five vertices."""
    _level_sources(7)
    frozen = {s: enumeration._CORES_MEMO[s, False][1] for s in (4, 5, 6)}
    assert {s: len(v) for s, v in frozen.items()} == {4: 0, 5: 7, 6: 2}
    for bound in (4, 5, 6):
        monkeypatch.setattr(enumeration, "_CORES_MEMO", {})
        assert triangle_cores(bound) == {s: frozen[s] for s in range(4, bound + 1)}
        assert enumeration._CORES_MEMO[bound, True][0] == []

    monkeypatch.setattr(enumeration, "_CORES_MEMO", {})
    received = {}
    scan = enumeration._scan_level

    def logged(sources, s, lower, terminal):
        received[s, terminal] = len(sources)
        return scan(sources, s, lower, terminal)

    monkeypatch.setattr(enumeration, "_scan_level", logged)
    triangle_cores(5)
    assert {s: len(v) for s, v in triangle_cores(6).items() if v} == {5: 7, 6: 2}
    assert received == {(4, False): 2, (5, True): 5, (5, False): 5, (6, True): 27}


def test_edge_orbits_match_exhaustive_labelling():
    """For every core up to seven vertices, the edge sets the augmentation
    labels, the least of each orbit of the core's automorphisms, are exactly
    the first edge set of each class among all 2^p edge sets labelled in
    order: pairwise non-isomorphic, covering every class, and each class
    reached from the same first candidate as labelling every edge set.  The
    one 7-vertex core (c03) is the triangle set of the 7-vertex band, an
    obstruction without edge facets (c02), taken from there so that no
    7-vertex scan runs here."""
    band = band_complex(2, 7).canonical_form().facets
    assert not is_shellable(from_facets(band)).shellable
    assert all(is_shellable(from_facets(band).restriction(set(range(7)) - {v})).shellable for v in range(7))
    cores = [core for cores in triangle_cores(6).values() for core in cores] + [band]
    every = labelled = 0
    for core in cores:
        base = from_facets(core)
        pairs = enumeration._non_face_pairs(base)
        first = {}
        for ebits in range(1 << len(pairs)):
            extra = tuple(p for i, p in enumerate(pairs) if ebits >> i & 1)
            first.setdefault(from_facets(core + extra).canonical_form(), ebits)
        reps = enumeration._edge_orbit_reps(core, pairs)
        assert reps == sorted(first.values()), core
        every, labelled = every + (1 << len(pairs)), labelled + len(reps)
    assert (len(cores), every, labelled) == (10, 674, 63)


def test_edge_orbits_reject_a_wrong_automorphism_group(monkeypatch):
    """A permutation that is not an automorphism of a core, here one that maps
    a non-face pair to a face, stops the edge augmentation with a clear
    error; a missing automorphism makes two edge sets give one class, which
    stops it too."""
    triangle_cores(5)

    def reversal(xprime, deg):
        return [tuple(range(len(deg))), tuple(reversed(range(len(deg))))]

    monkeypatch.setattr(enumeration, "_automorphisms", reversal)
    with pytest.raises(RuntimeError, match="an automorphism of a core maps a non-face pair to a face"):
        enumeration._dim2_obstructions(5)
    monkeypatch.setattr(enumeration, "_automorphisms", lambda xprime, deg: [tuple(range(len(deg)))])
    with pytest.raises(RuntimeError, match="two edge orbits of a core give isomorphic complexes"):
        enumeration._dim2_obstructions(5)


def _nonzero_submasks(mask: int):
    d = mask
    while d:
        yield d
        d = (d - 1) & mask


def test_cone_extension_certificate_matches_the_greedy_closure():
    """The closed-form certificate of the core scan places exactly what the
    greedy shelling closure places, on every real source's face pairs, and it
    accepts every new vertex star whose pairs are faces of the base and form a
    connected graph."""
    sources = [(), ((0b111),)]
    for s in (4, 5, 6, 7):
        if s >= 6:
            tables = _pair_tables(s)
            connected = 0
            for face_mask in {_face_pair_mask(x, tables) for x in sources}:
                # every d at s = 6; at s = 7 the 2^15 choices of d per base
                # are too many, so only the stars along base faces
                every = (1 << tables.n_pairs) - 1
                for d in _nonzero_submasks(every if s == 6 else face_mask):
                    certified = _cone_extension_shellable(d, face_mask, tables)
                    assert certified == greedy_cone_extension_shellable(d, face_mask, tables)
                    star = [p for i, p in enumerate(tables.pairs) if d >> i & 1]
                    if d & ~face_mask == 0 and _triangle_components(star) == 1:
                        connected += 1
                        assert certified
            assert connected > {6: 1000, 7: 30000}[s]
        if s < 7:
            sources = sources + _scan_level(sources, s, _lower_cores(s), terminal=False)[0]
