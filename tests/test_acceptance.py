"""Acceptance gate: the ten headline checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 2 and 7 are search-heavy; everything is
single-threaded here and measured against the stated budgets.
"""

import hashlib
import time

import test_complexes
import test_partition
import test_properties_random
import test_shelling

from shellability.catalog import core_type, write_atlas
from shellability.enumeration import (
    dim2_shellability_obstructions,
    enumerate_obstructions,
    triangle_cores,
    verify_coincidence,
    verify_edge_addition_closure,
)
from shellability.graphs import cycle_graph, independence_complex, independence_cycle_report
from shellability.homology import HomologyGroup, reduced_homology
from shellability.obstruction import is_hereditary, obstruction_report
from shellability.partition import _tree_components_of_edge_part, _two_private_facets, band_complex, is_partitionable
from shellability.properties import PropertyKind, satisfies
from shellability.shelling import is_shellable

from conftest import corpus, is_connected

SH = PropertyKind.SHELLABLE

# sha256 of the catalog.json that write_atlas writes at the search's full bound
ATLAS7_SHA256 = "54b1e393c46cd43f27080d81fd61c4e162101000837a8c5f7a97a6cef6ab1556"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_dimension_zero_and_one_classification(two_k2):
    t0 = time.time()
    dim0 = enumerate_obstructions(0)
    dim1 = enumerate_obstructions(1)
    elapsed = time.time() - t0
    ok = (
        dim0 == []
        and len(dim1) == 1
        and dim1[0].is_isomorphic(two_k2)
        and elapsed < 1.0
    )
    report(1, ok, f"dim 0: {len(dim0)} classes, dim 1: {len(dim1)} (2K2), {elapsed:.2f}s")


def test_c02_edge_minimal_dimension_two_classification(complex_1a, complex_2):
    t0 = time.time()
    minimal = enumerate_obstructions(2, SH, "edge_minimal_obstructions", 7)
    elapsed = time.time() - t0
    by_type = {}
    for c in minimal:
        by_type.setdefault(core_type(c), []).append(c)
    counts = {t: len(v) for t, v in sorted(by_type.items())}
    keys = lambda cs: {c.canonical_form() for c in cs}
    ok = (
        len(minimal) == 12
        and counts == {1: 3, 2: 1, 3: 5, 4: 3}
        and complex_1a.canonical_form() in keys(by_type.get(1, []))
        and keys(by_type.get(2, [])) == {complex_2.canonical_form()}
        and keys(by_type.get(4, [])) == {band_complex(2, n).canonical_form() for n in (5, 6, 7)}
        and elapsed <= 600.0
    )
    report(2, ok, f"12 classes as 3+1+5+3, constructions match, {elapsed:.1f}s (budget 600s)")


def test_c03_vertex_bound_and_top_stratum():
    cores = triangle_cores(7)
    catalog = dim2_shellability_obstructions(7)
    ok = (
        set(cores.keys()) == {4, 5, 6, 7}
        and all(c.n_vertices <= 7 for c in catalog)
        and any(c.n_vertices == 7 for c in catalog)
        and len(cores[7]) >= 1
        and len(catalog) == 52  # frozen regression baseline for the class count
        and all(
            is_connected(c)
            and all(f.bit_count() >= 2 for f in c.facets)
            and sum(1 for f in c.facets if f.bit_count() == 3) >= 2
            for c in catalog
        )
    )
    report(3, ok, f"{len(catalog)} obstruction classes, all on <= 7 vertices; "
                  f"7-vertex stratum searched, {len(cores[7])} core(s) found")


def test_c03_seven_vertex_atlas_bytes(tmp_path):
    t0 = time.time()
    write_atlas(tmp_path, 7)
    elapsed = time.time() - t0
    digest = hashlib.sha256((tmp_path / "catalog.json").read_bytes()).hexdigest()
    cores = {s: len(v) for s, v in triangle_cores(7).items() if v}
    ok = digest == ATLAS7_SHA256 and cores == {5: 7, 6: 2, 7: 1}
    report(3, ok, f"7-vertex catalog.json sha256 {digest[:8]}..., cores per level {cores}, {elapsed:.1f}s")


def test_c04_edge_addition_closure():
    result = verify_edge_addition_closure(7)
    ok = result.ok and result.obstructions == len(dim2_shellability_obstructions(7))
    report(4, ok, f"{result.augmentations_checked} augmentations preserve obstruction-ness; "
                  f"every class reduces to an edge-minimal one")


def _disconnected_edge_link_witness(c) -> bool:
    for v in c.vertex_ids():
        link = c.link(1 << v)
        if len(link.faces_of_dim(1)) < 2 or link.dim != 1:
            continue
        if is_connected(link.pure_skeleton(1)):
            continue
        if not is_partitionable(link).partitionable and not satisfies(link, PropertyKind.SEQUENTIALLY_CM):
            return True
    return False


def test_c05_coincidence_with_witnesses(two_k2):
    reports = [verify_coincidence(0), verify_coincidence(1), verify_coincidence(2, 7)]
    ok = all(r.ok for r in reports)

    # dimension 1: both components of 2K2 are trees
    ok = ok and _tree_components_of_edge_part(two_k2) == 2

    witnesses_ok = True
    for c in dim2_shellability_obstructions(7):
        t = core_type(c)
        if t == 1:
            witnesses_ok &= _two_private_facets(c)
        elif t in (2, 3):
            witnesses_ok &= _disconnected_edge_link_witness(c)
        elif t == 4:
            skel = c.pure_skeleton(2)
            witnesses_ok &= skel.is_isomorphic(band_complex(2, c.n_vertices))
            witnesses_ok &= reduced_homology(skel, 1) == HomologyGroup(1)
        else:
            witnesses_ok = False
    ok = ok and witnesses_ok
    report(5, ok, "obstruction sets coincide in dims 0-2; per-type witnesses verified "
                  "(private facets / disconnected vertex link / band homology)")


def test_c06_strong_obstruction_list(two_k2, complex_1a):
    strong = enumerate_obstructions(2, SH, "strong_obstructions", 7)
    catalog = dim2_shellability_obstructions(7)
    minimal = enumerate_obstructions(2, SH, "edge_minimal_obstructions", 7)

    got_strong = {c.canonical_form() for c in strong}
    expected_strong = {c.canonical_form() for c in catalog if core_type(c) in (1, 4)}
    minimal_strong = {c.canonical_form() for c in minimal} & got_strong
    pinned = {complex_1a.canonical_form()} | {
        band_complex(2, n).canonical_form() for n in (5, 6, 7)
    }
    ok = (
        got_strong == expected_strong
        and obstruction_report(two_k2, SH).is_strong
        and all(not obstruction_report(c, SH).is_strong for c in catalog if core_type(c) in (2, 3))
        and len(minimal_strong) == 6
        and pinned <= minimal_strong
    )
    report(6, ok, f"{len(strong)} strong classes: exactly the type-1 and type-4 families "
                  "(edge additions of the matching complexes and the bands); 2K2 is strong")


def test_c07_flag_cycle_obstructions():
    t0 = time.time()
    rep8 = independence_cycle_report(8)
    t8 = time.time() - t0
    t0 = time.time()
    rep9 = independence_cycle_report(9)
    t9 = time.time() - t0
    case9 = [case for case in rep9.cases if case.n == 9][0]
    ind5 = independence_complex(cycle_graph(5))
    ok = (
        rep8.ok
        and rep9.ok
        and case9.dim == 3
        and is_hereditary(ind5, SH)[0]
        and t8 <= 300.0
        and t9 <= 300.0
    )
    report(7, ok, f"Ind(C_n) (strong) obstruction iff n != 5 for n in 4..9; "
                  f"n<=8 in {t8:.1f}s, n=9 marginal {t9:.1f}s (budgets 300s)")


def test_c08_homology_spot_values():
    z = HomologyGroup(1)
    checks = [reduced_homology(band_complex(2, n), 1) == z for n in (5, 6, 7)]
    ind7 = independence_complex(cycle_graph(7))
    ind9 = independence_complex(cycle_graph(9))
    checks.append(reduced_homology(ind7.pure_skeleton(2), 1) == z)
    checks.append(reduced_homology(ind9.pure_skeleton(3), 1) == z)
    report(8, all(checks), "H~1 = Z for the 5/6/7-bands and the top skeletons of Ind(C7), Ind(C9)")


def test_c09_property_suites():
    suites = [
        test_properties_random.test_shellable_implies_partitionable_and_scm,
        test_properties_random.test_link_closure_for_all_three_properties,
        test_properties_random.test_pure_skeleton_closure_for_shellability,
        test_properties_random.test_restriction_link_commutativity,
        test_properties_random.test_certificate_round_trips,
        test_properties_random.test_fast_paths_match_generic_search_low_dim,
        test_properties_random.test_hereditary_tri_equivalence_low_dim,
        test_properties_random.test_hereditary_tri_equivalence_flag_corpus,
    ]
    for suite in suites:
        suite()
    # the full seven-vertex catalog also participates in the implication laws
    for c in dim2_shellability_obstructions(7):
        assert not satisfies(c, PropertyKind.PARTITIONABLE)
        assert not satisfies(c, PropertyKind.SEQUENTIALLY_CM)
    report(9, True, f"{len(suites)} randomized suites (200+ instances each) plus the "
                    "full catalog: zero violations")


def test_c10_micro_oracles():
    # partitionability against every interval assignment
    part_checked = part_bad = 0
    for c in corpus(seed=201, count=120, n_max=5):
        if len(c.facets) > 4:
            continue
        part_checked += 1
        if is_partitionable(c).partitionable != test_partition.oracle_partitionable(c):
            part_bad += 1

    # shellability against every facet ordering
    shell_checked = shell_bad = 0
    for c in corpus(seed=202, count=90, n_max=5):
        if len(c.facets) > 6:
            continue
        shell_checked += 1
        if is_shellable(c).shellable != test_shelling.oracle_shellable(c):
            shell_bad += 1

    # canonical forms against permutation brute force
    canon_checked = canon_bad = 0
    cs = corpus(seed=203, count=40, n_max=6)
    for i, a in enumerate(cs):
        for b in cs[i + 1:i + 6]:
            canon_checked += 1
            if a.is_isomorphic(b) != test_complexes.brute_isomorphic(a, b):
                canon_bad += 1

    ok = (
        part_bad == shell_bad == canon_bad == 0
        and part_checked >= 60
        and shell_checked >= 60
        and canon_checked >= 150
    )
    report(10, ok, f"oracle agreement: partition {part_checked}, shelling {shell_checked}, "
                   f"canonical {canon_checked} instances, zero disagreements")
