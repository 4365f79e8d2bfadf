import random
from itertools import permutations

import pytest

from shellability import cache
from shellability.cohen_macaulay import is_cohen_macaulay, is_sequentially_cm
from shellability.complexes import SimplicialComplex, face_vertices, from_facets
from shellability.graphs import cycle_graph, independence_complex
from shellability.homology import reduced_homology
from shellability import shelling
from shellability.partition import band_complex, is_partitionable, verify_partition
from shellability.shelling import is_shellable, verify_shelling

from conftest import (
    DUNCE_HAT_FACETS, corpus, full_simplex, golden_classes, homology_oracle_inputs, is_connected, relabel,
    skeleton_identity_inputs,
)
from oracles import (
    fast_paths_agree, plain_search_ordering, shellable_by_search, shellable_through_skeletons,
    skeleton_prescreen_by_skeletons,
)


# --- independent oracle: the raw definition over frozensets -----------------

def _closure(s: frozenset) -> set:
    out = set()
    items = list(s)
    for bits in range(1 << len(items)):
        out.add(frozenset(items[i] for i in range(len(items)) if bits >> i & 1))
    return out


def oracle_is_shelling(ordering) -> bool:
    """Each facet must meet the union of the earlier ones in a pure complex
    of dimension one below its own; pure set logic, no bitmasks."""
    union: set = set()
    for j, sigma in enumerate(ordering):
        if j:
            meet = union & _closure(sigma)
            maximal = [m for m in meet if not any(m < other for other in meet)]
            if any(len(m) != len(sigma) - 1 for m in maximal):
                return False
        union |= _closure(sigma)
    return True


def oracle_shellable(c) -> bool:
    facets = [frozenset(face_vertices(f)) for f in c.facets]
    return any(oracle_is_shelling(p) for p in permutations(facets))


def as_sets(c):
    return [frozenset(face_vertices(f)) for f in c.facets]


# --- verify_shelling ---------------------------------------------------------

def test_triangle_edges_any_order(hollow_triangle):
    for p in permutations(hollow_triangle.facets):
        ok, restrictions = verify_shelling(hollow_triangle, p)
        assert ok and len(restrictions) == 3


def test_two_disjoint_edges_never_shellable(two_k2):
    for p in permutations(two_k2.facets):
        ok, _ = verify_shelling(two_k2, p)
        assert not ok


def test_band5_no_ordering_works(delta5):
    assert all(not verify_shelling(delta5, p)[0] for p in permutations(delta5.facets))
    assert not is_shellable(delta5).shellable


def test_minimal_complex_is_shellable():
    empty = from_facets([])
    decision = is_shellable(empty)
    assert decision.shellable
    ok, restrictions = verify_shelling(empty, decision.certificate.ordering)
    assert ok and restrictions == (0,)


def test_verify_requires_permutation(two_k2):
    with pytest.raises(ValueError):
        verify_shelling(two_k2, two_k2.facets[:1])
    with pytest.raises(ValueError):
        verify_shelling(two_k2, two_k2.facets + two_k2.facets[:1])


def test_disagreeing_shelling_criteria_raise(hollow_triangle, monkeypatch):
    monkeypatch.setattr(shelling, "_definitional_check", lambda ordering: False)
    with pytest.raises(RuntimeError, match="shelling criteria disagree"):
        verify_shelling(hollow_triangle, hollow_triangle.facets)


def test_verify_agrees_with_oracle_on_random_orderings():
    rng = random.Random(31)
    checked = 0
    for c in corpus(seed=31, count=40):
        facets = list(c.facets)
        for _ in range(4):
            rng.shuffle(facets)
            ok, _ = verify_shelling(c, facets)
            assert ok == oracle_is_shelling([frozenset(face_vertices(f)) for f in facets])
            checked += 1
    assert checked >= 160


# --- is_shellable -------------------------------------------------------------

def test_simple_decisions(simplex3, two_k2, delta5):
    assert is_shellable(full_simplex(4)).shellable
    assert is_shellable(simplex3).shellable
    assert not is_shellable(two_k2).shellable
    assert not is_shellable(delta5).shellable
    assert is_shellable(from_facets([])).shellable
    assert is_shellable(from_facets([{0}, {1}, {2}])).shellable


def test_bands_not_shellable():
    for n in (5, 6, 7):
        assert not is_shellable(band_complex(2, n)).shellable


def test_ind_c5_shellable_both_paths():
    c5 = independence_complex(cycle_graph(5))
    assert c5.dim == 1
    assert is_shellable(c5).shellable
    assert shellable_by_search(c5).shellable


def test_matching_complex_minus_any_vertex_is_shellable(complex_1a):
    for v in complex_1a.vertex_ids():
        assert is_shellable(complex_1a.deletion({v})).shellable
    assert not is_shellable(complex_1a).shellable


def test_certificates_verify(two_k2):
    for c in corpus(seed=32, count=60):
        decision = is_shellable(c)
        if decision.shellable:
            cert = decision.certificate
            ok, restrictions = verify_shelling(c, cert.ordering)
            assert ok
            assert restrictions == cert.restriction_sets
            assert oracle_is_shelling([frozenset(face_vertices(f)) for f in cert.ordering])
        else:
            assert decision.certificate is None


def test_against_brute_force_orderings():
    disagreements = 0
    checked = 0
    for c in corpus(seed=33, count=60, n_max=5):
        if len(c.facets) > 6:
            continue
        checked += 1
        if is_shellable(c).shellable != oracle_shellable(c):
            disagreements += 1
    assert checked >= 40
    assert disagreements == 0
    # the multi-facet draw, where a nonshellable input is no rarity
    verdicts = []
    for c in corpus(seed=37, count=80, n_max=6, multi_facet=True):
        if len(c.facets) > 6:
            continue
        verdicts.append(is_shellable(c).shellable)
        assert verdicts[-1] == oracle_shellable(c)
    assert len(verdicts) >= 75 and len(verdicts) - sum(verdicts) >= 9


def test_fast_paths_agree_on_low_dimensions():
    """Every dimension of the corpus: the low-facet rule has no dimension cutoff."""
    draws = corpus(seed=34, count=50)
    for c in draws:
        assert fast_paths_agree(c)
    assert sum(c.dim > 2 for c in draws) >= 10


def _with_low_facets(seed: int, count: int) -> list[SimplicialComplex]:
    """Nonpure complexes of dimension 3 or 4 with an edge or vertex facet:
    multi-facet draws with one to three edges and up to two single vertices
    added, on their own vertices and two new ones."""
    rng = random.Random(seed)
    out = []
    for c in corpus(seed=seed, count=6 * count, n_max=7, dim_cap=4, multi_facet=True):
        if c.dim < 3 or len(out) == count:
            continue
        n = c.vertices.bit_length() + 2
        extra = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3))]
        extra += [[v] for v in rng.sample(range(n), rng.randint(0, 2))]
        c = from_facets([*c.facets, *extra])
        if c.facets[0].bit_count() <= 2:
            out.append(c)
    return out


def test_the_low_facet_rule_matches_the_search_above_dimension_two(monkeypatch):
    """Above dimension 2, a complex with an edge or vertex facet is decided
    by the rule, and only its Δ_{≥2} is searched: the verdicts are the plain
    search's, and both orders are shellings."""
    inputs = _with_low_facets(seed=341, count=320) + [from_facets(facets) for facets in (
        [{0, 1, 2, 3}, {3, 4}, {4, 5}, {5, 6}],  # a dangling edge path
        [{0, 1, 2, 3}, {3, 4}, {5}],  # an edge and an isolated vertex
        [{0, 1, 2, 3}, {4, 5}],  # a disjoint edge: two classes
        [{0, 1, 2, 3}, {3, 4, 5, 6}, {6, 7}],  # Δ_{≥2} is not strongly connected
        # a cone over a nonshellable 2-complex with a pendant edge: only the search rejects Δ_{≥2}
        [{0, 1, 3, 5}, {0, 2, 4, 5}, {1, 3, 4, 5}, {2, 3, 4, 5}, {5, 6}],
    )]
    searched = []
    search = shelling._search_ordering

    def recorded(c):
        searched.append(c.facets)
        return search(c)

    monkeypatch.setattr(shelling, "_search_ordering", recorded)
    cache.clear_all_caches()
    shellable = 0
    try:
        for c in inputs:
            got, want = is_shellable(c), shellable_by_search(c)
            assert got.shellable == want.shellable, c.facets
            if got.shellable:
                assert verify_shelling(c, got.certificate.ordering)[0]
                assert verify_shelling(c, want.certificate.ordering)[0]
            shellable += got.shellable
        # the dunce hat with a pendant edge, where only the search of Δ_{≥2}
        # rejects, and with a disjoint edge: the plain search takes seconds,
        # so the search with the record, which places the plain search's
        # facets, is the reference
        for edge in ({7, 8}, {8, 9}):
            c = from_facets([*DUNCE_HAT_FACETS, edge])
            assert not is_shellable(c).shellable and search(c) is None
    finally:
        cache.clear_all_caches()
    assert len(inputs) == 325 and shellable >= 150 and len(inputs) - shellable >= 100
    assert searched and all(facets[0].bit_count() > 2 for facets in searched)


def test_low_dimensions_read_from_the_facets_match_the_skeleton_path():
    """Verdicts and certificates in dimensions 1 and 2, against the branch
    that built the pure 2-skeleton and the 1-skeleton as complexes; nonpure
    2-complexes with dangling edges and isolated vertices, and graphs with
    isolated vertices, included."""
    inputs = homology_oracle_inputs() + golden_classes()
    inputs += corpus(seed=35, count=150, n_max=7, dim_cap=2, multi_facet=True)
    inputs = [c for c in inputs if 1 <= c.dim <= 2] + [from_facets(facets) for facets in (
        [{0, 1, 2}, {2, 3}], [{0, 1, 2}, {2, 3}, {4}], [{0, 1, 2}, {3, 4}], [{0, 1, 2}, {3}],
        [{0, 1, 2}, {1, 2, 3}, {3, 4}, {4, 5}, {6}, {7}], [{0, 1, 2}, {2, 3, 4}, {4, 0}, {5}],
        [{0, 1}, {2}], [{0, 1}, {1, 2}, {3}, {4}], [{0, 1}, {2, 3}, {4}], [{0, 1, 2}, {3, 4, 5}, {2, 3}, {6}],
    )]
    nonpure_twos = isolated_ones = shellable = 0
    for c in inputs:
        decision = is_shellable(c)
        assert decision == shellable_through_skeletons(c), c.facets
        shellable += decision.shellable
        nonpure_twos += c.dim == 2 and not c.is_pure()
        isolated_ones += c.dim == 1 and c.facets[0].bit_count() == 1
    assert len(inputs) - shellable >= 200 and shellable >= 1100
    assert nonpure_twos >= 240 and isolated_ones >= 160
    with pytest.raises(ValueError):
        shellable_through_skeletons(full_simplex(4))


def test_skeleton_and_link_closure_for_shellable_corpus():
    for c in corpus(seed=35, count=40):
        if not is_shellable(c).shellable:
            continue
        for i in range(0, c.dim + 1):
            assert is_shellable(c.pure_skeleton(i)).shellable
        for tau in sorted(c.faces())[:12]:
            assert is_shellable(c.link(tau)).shellable


def test_nonincreasing_restriction_never_changes_verdict():
    """Searching all orderings agrees with the dimension-ordered search."""
    for c in corpus(seed=36, count=40, n_max=5) + corpus(seed=38, count=40, n_max=6, multi_facet=True):
        if len(c.facets) > 6:
            continue
        assert shellable_by_search(c).shellable == oracle_shellable(c)


# --- the record of failed facet sets -----------------------------------------

# Shellable 2-complexes, 20 triangles on 8 vertices, strongly connected and
# with trivial homology, so the prescreen passes them.  On their canonical
# representatives the search without the record places 90,000 facets or more
# (about a second each); the first one, 653,582.
SLOW_SHELLABLE = [
    [7, 19, 35, 38, 67, 74, 82, 84, 88, 97, 100, 104, 112, 133, 138, 140, 176, 194, 196, 208],
    [14, 22, 28, 42, 52, 56, 69, 70, 73, 82, 84, 98, 133, 137, 140, 148, 161, 162, 200, 224],
    [14, 22, 28, 38, 50, 67, 69, 74, 82, 88, 97, 112, 133, 145, 148, 161, 162, 196, 200, 208],
    [11, 14, 35, 38, 41, 50, 56, 69, 70, 81, 82, 138, 140, 145, 148, 152, 161, 164, 194, 200],
]

# ``plain_search_ordering`` of the first one's canonical representative,
# about nine seconds of search.
SLOWEST_PLAIN_ORDERING = (
    13, 14, 74, 82, 88, 98, 140, 152, 146, 194, 196, 69, 193, 145, 224, 161, 164, 168, 176, 52,
)


def _canonical_representative(c) -> SimplicialComplex:
    """The labeling the slow inputs are slow in: canonical ids 0..n-1.  The
    deciders search each input in its own labels, so a test that times the
    search on a slow input decides this copy of it."""
    canon = c.canonical_form()
    return SimplicialComplex(canon.facets)


def test_memoized_search_matches_the_plain_search():
    """The record of failed facet sets prunes only prefixes that cannot
    extend, so the first shelling found is the plain search's."""
    draws = corpus(seed=39, count=300, n_max=8, max_facets=12, multi_facet=True) + corpus(
        seed=40, count=600, n_max=8, dim_cap=2, max_facets=14, multi_facet=True
    )
    shellable = 0
    for c in draws:
        got = shelling._search_ordering(c)
        assert got == plain_search_ordering(c), c.facets
        shellable += got is not None
    assert shellable >= 500 and len(draws) - shellable >= 250
    for facets in SLOW_SHELLABLE[1:]:
        rep = _canonical_representative(from_facets(facets))
        assert shelling._search_ordering(rep) == plain_search_ordering(rep), facets
    rep = _canonical_representative(from_facets(SLOW_SHELLABLE[0]))
    assert shelling._search_ordering(rep) == SLOWEST_PLAIN_ORDERING


def _placement_budget(monkeypatch, budget: int) -> list[int]:
    """Count ``subsets_of`` calls in the shelling module, one per facet placed
    plus one per facet of each verified certificate, and stop past the budget."""
    placed = [0]
    real = shelling.subsets_of

    def counted(mask):
        placed[0] += 1
        if placed[0] > budget:
            raise RuntimeError(f"more than {budget} facets placed")
        return real(mask)

    monkeypatch.setattr(shelling, "subsets_of", counted)
    return placed


def test_failed_facet_sets_are_not_searched_again(monkeypatch):
    """With the record, deciding the slowest input places 1,069 facets;
    without it, 653,582.  Each of the three deciders decides it from cold
    caches within the budget."""
    c = _canonical_representative(from_facets(SLOW_SHELLABLE[0]))
    placed = _placement_budget(monkeypatch, 2000)
    decisions = []
    try:
        for decide in (is_shellable, is_partitionable, is_sequentially_cm):
            cache.clear_all_caches()
            placed[0] = 0
            decisions.append(decide(c))
    finally:
        cache.clear_all_caches()
    shellable, partitionable, scm = decisions
    assert verify_shelling(c, shellable.certificate.ordering)[0]
    assert verify_partition(c, partitionable.certificate.assignment)
    assert scm.verdict


def test_the_prescreen_reads_the_1_skeleton_from_the_facets():
    """Nonpure inputs whose edges fall into one class or several.  Those with
    an edge or vertex facet are decided by the rule, which reads the classes
    of the facets with an edge: the verdicts are the plain search's.  On the
    others the prescreen's verdicts are those of the built pure skeletons."""
    inputs = homology_oracle_inputs() + corpus(seed=36, count=150, n_max=7, multi_facet=True)
    inputs += [from_facets(facets) for facets in (
        [{0, 1, 2, 3}, {4, 5}], [{0, 1, 2, 3}, {3, 4}, {5}], [{0, 1, 2, 3}, {4, 5, 6}, {6, 7}],
    )]
    # disjoint unions, the second part on vertices 4..7
    pairs = zip(corpus(seed=37, count=200, n_max=4), corpus(seed=38, count=200, n_max=4))
    inputs += [from_facets([*a.facets, *(f << 4 for f in b.facets)]) for a, b in pairs]
    nonpure = [c for c in inputs if not c.is_pure()]
    split = 0
    for c in nonpure:
        if c.facets[0].bit_count() <= 2:
            assert is_shellable(c).shellable == shellable_by_search(c).shellable, c.facets
        else:
            assert shelling._skeleton_prescreen_nonshellable(c) == skeleton_prescreen_by_skeletons(c), c.facets
        split += not is_connected(c.pure_skeleton(1))
    assert len(nonpure) >= 550 and split >= 60


def test_the_prescreen_reads_each_skeleton_from_the_facets_with_enough_vertices():
    """The same verdicts as checking every built pure skeleton: the pure
    i-skeleton is strongly connected when the facets with at least i + 1
    vertices form one class at i shared vertices, and its groups below
    degree i are those of the subcomplex they generate.  Compared on every
    input, those with an edge or vertex facet too, where the rule runs
    instead: at i = 1 the prescreen reads the same classes as the rule."""
    inputs = skeleton_identity_inputs()
    cache.clear_all_caches()
    expected = [skeleton_prescreen_by_skeletons(c) for c in inputs]
    cache.clear_all_caches()
    fired = below_top = 0
    for c, want in zip(inputs, expected):
        assert shelling._skeleton_prescreen_nonshellable(c) == want, c.facets
        fired += want
        # nonpure, with edges in one class and nothing wrong with the top
        # skeleton's homology, so only a skeleton between them fires
        below_top += (want and not c.is_pure() and is_connected(c.pure_skeleton(1))
                      and not any(not reduced_homology(c.pure_skeleton(c.dim), k).is_trivial() for k in range(c.dim)))
    assert len(inputs) >= 2700 and fired >= 350 and below_top >= 150


def test_nonshellable_input_past_the_prescreen_is_searched_once(monkeypatch):
    """The dunce hat passes the skeleton prescreen, so only the search can
    reject it; without the record it places 513,445 facets."""
    c = from_facets(DUNCE_HAT_FACETS)
    _placement_budget(monkeypatch, 5000)
    cache.clear_all_caches()
    try:
        assert not shelling._skeleton_prescreen_nonshellable(c)
        assert not is_shellable(c).shellable
    finally:
        cache.clear_all_caches()


def test_decisions_above_the_labeling_cap_are_memoized_on_raw_facets(monkeypatch):
    """The 10-vertex join of the dunce hat with an edge, decided twice, is
    searched once and never labeled; a relabeled copy is a new key and is
    searched again."""
    from shellability import complexes

    c = from_facets([f | {8, 9} for f in DUNCE_HAT_FACETS])
    assert c.n_vertices == complexes.CANONICAL_VERTEX_CAP + 1
    searches = []
    search = shelling._search_ordering

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(shelling, "_search_ordering", counted)
    cache.clear_all_caches()
    try:
        assert not is_shellable(c).shellable
        assert not is_shellable(c).shellable
        assert len(searches) == 1
        assert complexes._CANON_CACHE == {}
        shifted = relabel(c, {v: 9 - v for v in c.vertex_ids()})
        assert shifted != c
        assert not is_shellable(shifted).shellable
        assert len(searches) == 2
    finally:
        cache.clear_all_caches()


def test_the_deciders_never_label_below_the_cap(monkeypatch):
    """Below the labeling cap too, the three deciders memoize on the input's
    raw facets: deciding a seeded corpus on up to nine vertices labels
    nothing, and a relabeled copy of the dunce hat is a new key and is
    searched again."""
    from shellability import complexes

    draws = corpus(seed=42, count=200, n_max=9, max_facets=12, multi_facet=True)
    assert max(c.n_vertices for c in draws) == complexes.CANONICAL_VERTEX_CAP
    searches = []
    search = shelling._search_ordering

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(shelling, "_search_ordering", counted)
    cache.clear_all_caches()
    try:
        for c in draws:
            for decide in (is_shellable, is_partitionable, is_sequentially_cm):
                decide(c)
        assert complexes._CANON_CACHE == {}
        c = from_facets(DUNCE_HAT_FACETS)
        searches.clear()
        assert not is_shellable(c).shellable
        assert not is_shellable(c).shellable
        assert len(searches) == 1
        shifted = relabel(c, {v: 8 - v for v in c.vertex_ids()})
        assert shifted != c
        assert not is_shellable(shifted).shellable
        assert len(searches) == 2
        assert complexes._CANON_CACHE == {}
    finally:
        cache.clear_all_caches()


def test_each_facet_list_is_verified_once(monkeypatch):
    """All three deciders, asked twice, verify one shelling and one interval
    partition per facet list; a nonpure input's pure 2-skeleton is decided,
    and its shelling verified, once more.  A second call returns the stored
    decision itself."""
    from shellability import partition

    calls = {"shelling": 0, "partition": 0}

    def counted(kind, verify):
        def wrapper(*args):
            calls[kind] += 1
            return verify(*args)
        return wrapper

    monkeypatch.setattr(shelling, "verify_shelling", counted("shelling", shelling.verify_shelling))
    monkeypatch.setattr(partition, "verify_partition", counted("partition", partition.verify_partition))
    nonpure = from_facets([{0, 1, 2}, {1, 2, 3}, {3, 4}, {5}])
    disk = from_facets([{0, 1, 2}, {0, 2, 3}, {0, 3, 4}])
    try:
        for c, skeleton in ((nonpure, 1), (disk, 0)):
            cache.clear_all_caches()
            calls.update(shelling=0, partition=0)
            for _ in range(2):
                assert is_shellable(c).shellable
                assert is_partitionable(c).partitionable
                assert is_sequentially_cm(c).verdict
            assert calls == {"shelling": 1 + skeleton, "partition": 1}, c
            assert is_shellable(c) is is_shellable(c)
            assert is_partitionable(c) is is_partitionable(c)
        assert is_cohen_macaulay(disk) is is_cohen_macaulay(disk)
    finally:
        cache.clear_all_caches()
