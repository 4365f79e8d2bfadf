import os
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
from shellability.complexes import CapacityError, from_facets, union
from shellability.enumeration import (
    EnumerationTask,
    _admissible_links,
    _automorphisms,
    _cone_extension_shellable,
    _deficit_groups,
    _face_pair_mask,
    _pair_tables,
    _scan_level,
    dim2_shellability_obstructions,
    edge_minimal,
    enumerate_complexes,
    enumerate_obstructions,
    generic_obstructions,
    triangle_cores,
    verify_coincidence,
    verify_edge_addition_closure,
)
from shellability.partition import band_complex
from shellability.properties import PropertyKind

from oracles import (
    _known,
    _register_cores,
    _star_removed,
    _triangle_components,
    brute_force_automorphisms,
    enumerate_dim2_complexes,
    generic_dim2_obstructions,
    greedy_cone_extension_shellable,
    register_sources,
    source_lookup_known,
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
    assert len(enumerate_complexes(1, 3)) == 2
    assert len(enumerate_complexes(1, 4)) == 7
    assert len(enumerate_complexes(1, 3)) == brute_edge_set_classes(3, no_isolated=True)
    assert len(enumerate_complexes(1, 4)) == brute_edge_set_classes(4, no_isolated=True)
    # with 0-facets allowed, smaller edge supports pad out with isolated vertices
    assert len(enumerate_complexes(1, 4, include_zero_facets=True)) == \
        brute_edge_set_classes(4, no_isolated=False)


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
    with pytest.raises(CapacityError):
        enumerate_dim2_complexes(7)


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
    assert enumerate_obstructions(EnumerationTask(0, SH)) == []
    found = enumerate_obstructions(EnumerationTask(1, SH))
    assert len(found) == 1 and found[0].is_isomorphic(two_k2)
    for prop in PropertyKind:
        found = enumerate_obstructions(EnumerationTask(1, prop))
        assert len(found) == 1 and found[0].is_isomorphic(two_k2)


def test_dim1_four_vertex_bound_suffices(two_k2):
    found = enumerate_obstructions(EnumerationTask(1, SH, max_vertices=4))
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
        assert c.connected()
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


def test_edge_minimal_mode_needs_dimension_two():
    for dim in (0, 1):
        with pytest.raises(ValueError, match="2-dimensional"):
            EnumerationTask(dim, SH, "edge_minimal_obstructions")
    assert EnumerationTask(2, SH, "edge_minimal_obstructions").dimension == 2


def test_strong_mode_and_minimal_mode():
    strong = enumerate_obstructions(EnumerationTask(2, SH, "strong_obstructions", 6))
    minimal = enumerate_obstructions(EnumerationTask(2, SH, "edge_minimal_obstructions", 6))
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
        c = e.complex()
        assert c.canonical_form() == from_facets(
            [set(f) for f in e.facets]
        ).canonical_form()


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
    minimal = enumerate_obstructions(EnumerationTask(2, SH, "edge_minimal_obstructions", 6))
    by_label = {e.label: e.complex() for e in build_entries(minimal)}
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
    """The sources of level s: every hereditarily shellable class below it."""
    triangle_cores(s - 1)
    sources = [(), ((0b111),)]
    for level in range(4, s):
        sources = sources + enumeration._CORES_MEMO[level][0]
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


def _scanned_links(monkeypatch, sources, s, terminal):
    """Run one level scan and record, per source, the links it examined."""
    scanned = {}
    face_pair_mask = enumeration._face_pair_mask
    certify = enumeration._cone_extension_shellable

    def entering(xprime, tables):
        scanned[xprime] = []
        return face_pair_mask(xprime, tables)

    def examined(d, face_mask, tables):
        scanned[next(reversed(scanned))].append(d)
        return certify(d, face_mask, tables)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_face_pair_mask", entering)
        patch.setattr(enumeration, "_cone_extension_shellable", examined)
        _scan_level(sources, s, _lower_cores(s), terminal)
    return scanned


def test_source_automorphisms_match_brute_force(monkeypatch):
    """The scan's automorphism helper finds exactly the permutations that map a
    source's triangles onto themselves, and the links the scan examines are
    one per orbit of those automorphisms, whose orbits cover every admissible
    link."""
    for s in (5, 6, 7):
        sources = _level_sources(s)
        tables = _pair_tables(s)
        groups = _deficit_groups(tables)
        if s < 7:
            scanned = _scanned_links(monkeypatch, sources, s, terminal=False)
        else:
            # the terminal scan of all 838 sources, and the 720 permutations
            # the oracle tries on each, would slow the suite; a fixed slice
            assert len(sources) == 838
            scanned = _scanned_links(monkeypatch, sources[3::20], s, terminal=True)
            assert len(scanned) == 42
        for x in (sources if s < 7 else scanned):
            deg, extras = _degrees_and_extras(x, s)
            auts = brute_force_automorphisms(x, s - 1)
            assert sorted(_automorphisms(x, deg)) == sorted(auts)
            links = set(_admissible_links(groups, deg, extras, tables))
            reps = scanned.get(x, [])
            orbits = [{_link_image(d, g, tables) for g in auts} for d in reps]
            assert set().union(*orbits) == links
            assert sum(map(len, orbits)) == len(links)  # one link per orbit


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
        every = len(enumeration._restrictions(s))
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
            if rejected and not has_copy(mask, enumeration._restrictions(s).values(),
                                         enumeration._core_copies(s, five_cores)):
                by_six.append(triangles)
        counts = (len(calls), sum(rejected for _, _, rejected in calls), len(by_six))
        assert counts == {5: (54, 0, 0), 6: (3426, 1546, 0), 7: (31427, 31427, 2)}[s], counts


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
    triangle_cores(6)
    tables = _pair_tables(6)
    first_five = enumeration._restrictions(6)[0b11111]
    extra = {tables.mask(rep) & first_five for rep in enumeration._CORES_MEMO[6][0]}
    core_copies = enumeration._core_copies
    monkeypatch.setattr(enumeration, "_core_copies", lambda s, lower: core_copies(s, lower) | extra)
    with pytest.raises(RuntimeError, match="a star removal of a new class is not hereditarily shellable"):
        _scan_level(_level_sources(6), 6, _lower_cores(6), terminal=False)


def test_scan_attaches_one_link_per_source_orbit(monkeypatch):
    """The scan examines {7, 127, 9188} links at s = 4, 5, 6 without the
    orbit pruning; with it, one per automorphism orbit of each source."""
    calls = []
    certify = enumeration._cone_extension_shellable

    def counted(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(enumeration, "_cone_extension_shellable", counted)
    sources = [(), ((0b111),)]
    lower = []
    for s in (4, 5, 6):
        calls.clear()
        h, cores = _scan_level(sources, s, lower, terminal=False)
        assert len(calls) == {4: 3, 5: 32, 6: 2615}[s]
        sources = sources + h
        lower = lower + cores


def test_each_core_level_is_scanned_once(monkeypatch):
    monkeypatch.setattr(enumeration, "_CORES_MEMO", {})
    monkeypatch.setattr(enumeration, "_DIM2_MEMO", {})
    levels = []
    scan = enumeration._scan_level

    def logged(sources, s, *args):
        levels.append(s)
        return scan(sources, s, *args)

    monkeypatch.setattr(enumeration, "_scan_level", logged)
    triangle_cores(6)
    assert {s: len(v) for s, v in triangle_cores(5).items()} == {4: 0, 5: 7}
    dim2_shellability_obstructions(5)
    assert levels == [4, 5, 6]


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
