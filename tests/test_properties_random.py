"""Randomised invariant suites: 200+ seeded instances per law, plus the
enumerated obstruction classes.  Zero tolerated violations anywhere."""

import random
from itertools import combinations

from shellability import cache
from shellability.cohen_macaulay import is_sequentially_cm
from shellability.complexes import face, from_facets
from shellability.enumeration import dim2_shellability_obstructions
from shellability.graphs import graph_from_edges, independence_complex
from shellability.homology import reduced_homology
from shellability.obstruction import is_hereditary
from shellability.partition import is_partitionable, verify_partition
from shellability.properties import PropertyKind, satisfies
from shellability.shelling import is_shellable, verify_shelling

from conftest import corpus, relabel
from oracles import fast_paths_agree, flag_round_trip, is_flag


def enumerated_classes():
    return [from_facets([{0, 1}, {2, 3}])] + dim2_shellability_obstructions(6)


def flag_corpus(seed: int, count: int, n_max: int = 6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        out.append(independence_complex(graph_from_edges(n, edges)))
    return out


def test_shellable_implies_partitionable_and_scm():
    instances = corpus(seed=101, count=210) + enumerated_classes()
    shellable_seen = 0
    for c in instances:
        if is_shellable(c).shellable:
            shellable_seen += 1
            assert is_partitionable(c).partitionable
            assert satisfies(c, PropertyKind.SEQUENTIALLY_CM)
    assert shellable_seen >= 100


def test_link_closure_for_all_three_properties():
    instances = corpus(seed=102, count=200) + enumerated_classes()
    checked = 0
    for c in instances:
        status = {p: satisfies(c, p) for p in PropertyKind}
        if not any(status.values()):
            continue
        for tau in sorted(c.faces()):
            link = c.link(tau)
            for p, holds in status.items():
                if holds:
                    assert satisfies(link, p)
                    checked += 1
    assert checked >= 1000


def test_pure_skeleton_closure_for_shellability():
    instances = corpus(seed=103, count=210) + enumerated_classes()
    checked = 0
    for c in instances:
        if not is_shellable(c).shellable:
            continue
        for i in range(0, c.dim + 1):
            assert is_shellable(c.pure_skeleton(i)).shellable
            checked += 1
    assert checked >= 150


def test_restriction_link_commutativity():
    rng = random.Random(104)
    instances = corpus(seed=104, count=220) + enumerated_classes()
    checked = 0
    for c in instances:
        w = face(v for v in c.vertex_ids() if rng.random() < 0.7)
        restricted = c.restriction(w)
        for tau in restricted.faces():
            assert restricted.link(tau) == c.link(tau).restriction(w)
            checked += 1
    assert checked >= 800


def test_certificate_round_trips():
    instances = corpus(seed=105, count=220) + enumerated_classes()
    shell_certs = part_certs = 0
    for c in instances:
        decision = is_shellable(c)
        if decision.shellable:
            ok, restrictions = verify_shelling(c, decision.certificate.ordering)
            assert ok and restrictions == decision.certificate.restriction_sets
            shell_certs += 1
        partition = is_partitionable(c)
        if partition.partitionable:
            assert verify_partition(c, partition.certificate.assignment)
            part_certs += 1
    assert shell_certs >= 100 and part_certs >= 100


def test_verdicts_do_not_depend_on_vertex_labels():
    """Each labeling is decided on its own facets, so no shared memo entry
    makes the answers agree: the verdicts match across relabelings onto ids
    0..8, and every certificate and witness holds in its own labels."""
    rng = random.Random(111)
    decided = []
    for c in corpus(seed=110, count=300, n_max=8, max_facets=12, multi_facet=True):
        ids = c.vertex_ids()
        verdicts = set()
        for labeled in [c] + [relabel(c, dict(zip(ids, rng.sample(range(9), len(ids))))) for _ in range(3)]:
            cache.clear_all_caches()
            shelling, partition, scm = (
                is_shellable(labeled), is_partitionable(labeled), is_sequentially_cm(labeled)
            )
            verdicts.add((shelling.shellable, partition.partitionable, scm.verdict))
            if shelling.shellable:
                assert verify_shelling(labeled, shelling.certificate.ordering)[0]
            if partition.partitionable:
                assert verify_partition(labeled, partition.certificate.assignment)
            if not scm.verdict:
                w = scm.witness
                group = reduced_homology(labeled.pure_skeleton(w.skeleton_dim).link(w.face), w.degree)
                assert group == w.group and not group.is_trivial()
        assert len(verdicts) == 1, c.facets
        decided.append(verdicts.pop())
    cache.clear_all_caches()
    assert sum(shellable for shellable, _, _ in decided) >= 150
    assert sum(not scm for _, _, scm in decided) >= 50


def test_fast_paths_match_generic_search_low_dim():
    checked = 0
    for c in corpus(seed=106, count=230, dim_cap=2):
        if c.dim <= 2:
            assert fast_paths_agree(c)
            checked += 1
    assert checked >= 200


def test_hereditary_tri_equivalence_low_dim():
    checked = 0
    for c in corpus(seed=107, count=200, dim_cap=2):
        answers = {p: is_hereditary(c, p)[0] for p in PropertyKind}
        assert len(set(answers.values())) == 1
        checked += 1
    assert checked >= 200


def test_hereditary_tri_equivalence_flag_corpus():
    checked = 0
    for c in flag_corpus(seed=108, count=200):
        assert is_flag(c)[0] and flag_round_trip(c)
        answers = {p: is_hereditary(c, p)[0] for p in PropertyKind}
        assert len(set(answers.values())) == 1
        checked += 1
    # a few larger flag instances to exercise dimensions above two
    for c in flag_corpus(seed=109, count=12, n_max=8):
        answers = {p: is_hereditary(c, p)[0] for p in PropertyKind}
        assert len(set(answers.values())) == 1
        checked += 1
    assert checked >= 200
