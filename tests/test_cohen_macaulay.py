import json
from pathlib import Path

import pytest

from shellability import cache, cohen_macaulay
from shellability.cohen_macaulay import (
    _find_witness,
    _pure_skeletons_cm,
    is_cohen_macaulay,
    is_sequentially_cm,
)
from shellability.complexes import PurityError, SimplicialComplex, face_vertices, from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.homology import HomologyGroup, reduced_homology
from shellability.obstruction import ObstructionReport, obstruction_report
from shellability.partition import band_complex, is_partitionable
from shellability.properties import PropertyKind
from shellability.shelling import is_shellable

from conftest import (
    DUNCE_HAT_FACETS, cone, corpus, full_simplex, golden_classes, homology_oracle_inputs, is_connected, suspension,
)
from oracles import full_scan_witness, homology_group_by_degree, pure_skeletons_cm_by_scan

GOLDEN_ATLAS = Path(__file__).parent / "golden" / "atlas6_catalog.json"


def test_simplex_is_cm(simplex3):
    assert is_cohen_macaulay(full_simplex(4)).verdict
    assert is_cohen_macaulay(simplex3).verdict


def test_two_disjoint_edges_not_cm(two_k2):
    report = is_cohen_macaulay(two_k2)
    assert not report.verdict
    w = report.witness
    assert w.face == 0 and w.degree == 0 and w.group == HomologyGroup(1)


def test_two_disjoint_triangles_not_cm():
    c = from_facets([{0, 1, 2}, {3, 4, 5}])
    report = is_cohen_macaulay(c)
    assert not report.verdict
    assert not c.strongly_connected()


def test_band_not_cm(delta5):
    report = is_cohen_macaulay(delta5)
    assert not report.verdict
    assert report.witness.face == 0
    assert report.witness.degree == 1
    assert report.witness.group == HomologyGroup(1)


def test_purity_required(two_k2):
    with pytest.raises(PurityError):
        is_cohen_macaulay(from_facets([{0, 1, 2}, {3, 4}]))


def test_witness_contract_on_corpus():
    for c in corpus(seed=51, count=60):
        if not c.is_pure():
            continue
        report = is_cohen_macaulay(c)
        if report.verdict:
            assert report.witness is None
        else:
            w = report.witness
            link = c.link(w.face)
            assert w.degree < link.dim
            assert reduced_homology(link, w.degree) == w.group
            assert not w.group.is_trivial()


def test_sequentially_cm_examples(delta5, complex_1a):
    assert is_sequentially_cm(from_facets([])).verdict
    assert is_sequentially_cm(from_facets([{0}, {1}])).verdict
    assert not is_sequentially_cm(delta5).verdict
    assert not is_sequentially_cm(complex_1a).verdict
    for n in (5, 6, 7):
        assert not is_sequentially_cm(band_complex(2, n)).verdict


def test_one_dimensional_characterisation():
    # sequentially CM in dimension one means the edge part is connected
    for c in corpus(seed=52, count=80):
        if c.dim != 1:
            continue
        expected = is_connected(c.pure_skeleton(1))
        assert is_sequentially_cm(c).verdict == expected


def test_apex_links_fail(complex_2):
    report = is_sequentially_cm(complex_2)
    assert not report.verdict
    # the witness names the failing skeleton dimension
    assert report.witness.skeleton_dim in (1, 2)


def test_shellable_implies_sequentially_cm():
    """The implication, checked by the skeleton scan alone: the decider
    itself answers yes for a shellable complex without scanning."""
    shellable = 0
    inputs = corpus(seed=53, count=80) + corpus(seed=57, count=120, n_max=7, multi_facet=True)
    for c in inputs:
        if is_shellable(c).shellable:
            assert _pure_skeletons_cm(c).verdict, c.facets
            shellable += 1
    assert shellable >= 150


def test_proper_restrictions_of_the_golden_classes_pass_the_skeleton_scan():
    """Every proper restriction of an obstruction is shellable, so the skeleton
    scan must find each of them sequentially Cohen-Macaulay."""
    checked = 0
    for entry in json.loads(GOLDEN_ATLAS.read_text())["entries"]:
        c = from_facets([set(f) for f in entry["facets"]])
        verts = face_vertices(c.vertices)
        for bits in range((1 << len(verts)) - 1):
            r = c.restriction(sum(1 << v for i, v in enumerate(verts) if bits >> i & 1))
            assert is_shellable(r).shellable
            assert _pure_skeletons_cm(r).verdict, (entry["id"], r.facets)
            checked += 1
    assert checked == 1709


def test_cones_over_the_golden_classes_fail_in_a_link_through_the_apex():
    """A cone is shellable, partitionable or sequentially Cohen-Macaulay only
    if its base is, and no golden class is any of them.  Every proper
    restriction of the cone but the base is a cone over a proper restriction
    of the base, so the base is the only failing one.  A cone's own homology
    is 0 in every degree, so the scan has to find the failure in the link
    of a face through the apex."""
    classes = golden_classes()
    for base in classes:
        c = cone(base)
        apex = 1 << base.vertices.bit_length()
        assert not is_shellable(c).shellable, base.facets
        assert not is_partitionable(c).partitionable, base.facets
        fails_in_the_base = ObstructionReport(False, False, base.vertices)
        assert all(obstruction_report(c, p) == fails_in_the_base for p in PropertyKind), base.facets
        report = is_sequentially_cm(c)
        assert not report.verdict, base.facets
        w = report.witness
        assert w.face & apex, (base.facets, w)
        link = c.pure_skeleton(w.skeleton_dim).link(w.face)
        assert homology_group_by_degree(link, w.degree) == w.group != HomologyGroup(0)
        assert all(homology_group_by_degree(c, k).is_trivial() for k in range(-1, c.dim + 1))
    assert len(classes) == 35


def test_sequentially_cm_agrees_with_the_skeleton_scan():
    """Verdicts and witnesses; the dunce hat is Cohen-Macaulay without a
    shelling, so the scan alone decides it."""
    inputs = corpus(seed=58, count=150, n_max=7, multi_facet=True) + [from_facets(DUNCE_HAT_FACETS)]
    negatives = 0
    for c in inputs:
        report = is_sequentially_cm(c)
        assert report == _pure_skeletons_cm(c), c.facets
        negatives += not report.verdict
    assert negatives >= 30
    assert not is_shellable(inputs[-1]).shellable and is_sequentially_cm(inputs[-1]).verdict


def test_link_closure():
    for c in corpus(seed=54, count=40):
        if not is_sequentially_cm(c).verdict:
            continue
        for tau in sorted(c.faces())[:10]:
            assert is_sequentially_cm(c.link(tau)).verdict


def test_cm_implies_strongly_connected():
    for c in corpus(seed=55, count=60):
        if c.is_pure() and is_cohen_macaulay(c).verdict:
            assert c.strongly_connected()


def test_pure_complexes_scm_equals_cm():
    for c in corpus(seed=56, count=60):
        if c.is_pure():
            assert is_sequentially_cm(c).verdict == is_cohen_macaulay(c).verdict


def test_ind_cycles_not_scm():
    for n in (6, 7, 8, 9):
        assert not is_sequentially_cm(independence_complex(cycle_graph(n))).verdict


def test_is_cohen_macaulay_returns_the_full_scan_witness(monkeypatch):
    """Through the canonical-form memo, so on the representative and
    relabelled back, as the package runs the scan."""
    pure = [c for c in homology_oracle_inputs() if c.is_pure()]
    cache.clear_all_caches()
    reports = [is_cohen_macaulay(c) for c in pure]
    monkeypatch.setattr(cohen_macaulay, "_find_witness", full_scan_witness)
    cache.clear_all_caches()
    assert reports == [is_cohen_macaulay(c) for c in pure]
    assert sum(not r.verdict for r in reports) >= 90


def test_the_witness_scan_builds_only_links_with_a_degree_to_check(monkeypatch):
    """A face τ of a pure d-complex has a link of dimension d - |τ|, with a
    degree below its top only when |τ| < d.  The scan builds exactly those
    links, in the full scan's order, and returns the same witness."""
    built: list[int] = []
    real_link = SimplicialComplex.link

    def link(self, tau):
        built.append(tau)
        return real_link(self, tau)

    monkeypatch.setattr(SimplicialComplex, "link", link)
    pure = [c for c in homology_oracle_inputs() if c.is_pure()]
    skipped = witnesses = 0
    for c in pure:
        built.clear()
        expected_witness = full_scan_witness(c)
        expected = [tau for tau in built if tau.bit_count() < c.dim]
        skipped += len(built) - len(expected)
        built.clear()
        assert _find_witness(c) == expected_witness, c.facets
        assert built == expected, c.facets
        witnesses += expected_witness is not None
    assert skipped >= 1000 and witnesses >= 90


def test_the_skeleton_scan_reads_skeletons_0_and_1_from_the_facets(monkeypatch):
    """The same reports as scanning every pure skeleton, witness and
    skeleton_dim included, while is_cohen_macaulay never gets a skeleton of
    dimension 1 or less: a pure 0-complex is Cohen-Macaulay, and a pure
    1-complex fails exactly when its edges fall into more than one class."""
    golden = golden_classes()
    inputs = homology_oracle_inputs() + golden + [cone(c) for c in golden] + [suspension(c) for c in golden]
    inputs += [from_facets(facets) for facets in (
        [{0, 1}, {2, 3}], [{0, 1, 2}, {3, 4}], [{0, 1, 2}, {3, 4}, {5}], [{0, 1}, {2, 3}, {4, 5}, {6}],
        [{0, 1, 2, 3}, {4, 5}, {5, 6, 7}],
    )]
    cache.clear_all_caches()
    expected = [pure_skeletons_cm_by_scan(c) for c in inputs]
    handed: list[int] = []
    real = cohen_macaulay.is_cohen_macaulay

    def recorder(c):
        handed.append(c.dim)
        return real(c)

    monkeypatch.setattr(cohen_macaulay, "is_cohen_macaulay", recorder)
    cache.clear_all_caches()
    for c, want in zip(inputs, expected):
        assert _pure_skeletons_cm(c) == want, c.facets
    at_one = sum(not r.verdict and r.witness.skeleton_dim == 1 for r in expected)
    above = sum(not r.verdict and r.witness.skeleton_dim >= 2 for r in expected)
    assert all(r.witness.skeleton_dim != 0 for r in expected if not r.verdict)
    assert at_one >= 60 and above >= 250 and sum(r.verdict for r in expected) >= 1200
    assert handed and min(handed) >= 2
    assert _pure_skeletons_cm(from_facets([{0, 1}, {2, 3}, {4, 5}, {6}])).witness.group == HomologyGroup(2)
