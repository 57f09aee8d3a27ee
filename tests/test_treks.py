import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from brute_force_reference import (TrekSystem, exists_noncrossing_system_reference,
                                   has_sided_intersection_reference)
from trek_reference import is_simple_reference, simple_treks_reference
from treksep.graph import DAG, MAX_VERTICES, MIXED, UNDIRECTED, make_graph
from treksep.instances import choke_graph, spider_graph
from treksep.separation import RankResult, SeparationTriple, min_t_separator
from treksep.treks import (MIDDLE_BIDIRECTED, CapExceededError, Trek, _disjoint_systems,
                           enumerate_simple_treks, trek_monomial)
from treksep.verify import _menger_ok, random_graph


def test_choke_treks_1_to_4():
    treks = enumerate_simple_treks(choke_graph(), 1, 4)
    assert len(treks) == 2
    assert {t.right for t in treks} == {(1, 2, 4), (1, 3, 4)}
    assert all(t.left == (1,) and t.middle_kind is None and t.middle == (1,) for t in treks)


def test_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        enumerate_simple_treks(choke_graph(), 3, 6)


def test_spider_no_treks_between_legs_3_and_6():
    assert enumerate_simple_treks(spider_graph(), 3, 6) == []


def test_trivial_self_trek_always_present():
    g = make_graph(3, directed=[(1, 2)])
    for v in (1, 2, 3):
        treks = enumerate_simple_treks(g, v, v)
        assert Trek((v,), None, (v,), (v,)) in treks


def test_bidirected_middle_trek():
    g = make_graph(4, directed=[(1, 3), (2, 4)], bidirected=[(1, 2)])
    treks = enumerate_simple_treks(g, 3, 4)
    assert len(treks) == 1
    t = treks[0]
    assert t.middle_kind == "bidirected"
    assert trek_monomial(t) == "lambda(1,3)*lambda(2,4)*phi(1,2)"


def test_undirected_middle_trek():
    g = make_graph(4, directed=[(1, 3), (2, 4)], undirected=[(1, 2)])
    treks = enumerate_simple_treks(g, 3, 4)
    kinds = {t.middle_kind for t in treks}
    assert "undirected" in kinds
    mono = trek_monomial(next(t for t in treks if t.middle_kind == "undirected"))
    assert mono == "lambda(1,3)*lambda(2,4)*psi(1,2)"


def test_monomial_examples():
    g = make_graph(2, directed=[(1, 2)])
    t = enumerate_simple_treks(g, 1, 2)[0]
    assert trek_monomial(t) == "lambda(1,2)*phi(1,1)"
    trivial = Trek((1,), None, (1,), (1,))
    assert trek_monomial(trivial) == "phi(1,1)"


def test_monomial_writes_a_repeated_factor_with_its_exponent():
    # no simple trek repeats a factor; this one is not simple (2 lies on both
    # paths) and is the sigma_22 term of the trek rule through top 1
    assert trek_monomial(Trek((1, 2), None, (1,), (1, 2))) == "lambda(1,2)^2*phi(1,1)"


def test_cap_exceeded():
    g = choke_graph()
    with pytest.raises(CapExceededError, match="^enumeration cap of 1 exceeded by the "
                                               "simple treks between 1 and 4$"):
        enumerate_simple_treks(g, 1, 4, cap=1)


def test_disjoint_systems_spend_one_unit_of_the_cap_per_option_tried():
    # two systems, each row trying one option per free column: four units
    options = {(r, c): [((r, c), frozenset({r, c}))] for r in (1, 2) for c in (3, 4)}
    assert list(_disjoint_systems([1, 2], [3, 4], options, 4)) \
        == [((3, (1, 3)), (4, (2, 4))), ((4, (1, 4)), (3, (2, 3)))]
    with pytest.raises(CapExceededError, match=r"^enumeration cap of 3 exceeded by the vertex-"
                                               r"disjoint path systems from \[1, 2\] to \[3, 4\]$"):
        list(_disjoint_systems([1, 2], [3, 4], options, 3))


def _complete_dag(n):
    return make_graph(n, directed=[(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def test_cap_bounds_the_listing_of_directed_paths():
    # 2^37 directed paths end at 39: the cap is hit after 11 of them
    g = _complete_dag(40)
    start = time.process_time()
    with pytest.raises(CapExceededError, match="^enumeration cap of 10 exceeded by "
                                               "the directed paths into 39$"):
        enumerate_simple_treks(g, 39, 40, cap=10)
    assert time.process_time() - start < 1


def test_cap_counts_the_paths_into_j_that_meet_a_path_into_i():
    # every path into 6 passes 4: 8 paths into 4 times 2 paths 4 -> 6 meet a
    # path into 4 at their source, but only the two with top 4 are simple
    g = make_graph(6, directed=[(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
                   + [(4, 5), (5, 6), (4, 6)])
    assert [t.right for t in enumerate_simple_treks(g, 4, 6, cap=16)] == [(4, 6), (4, 5, 6)]
    with pytest.raises(CapExceededError, match="^enumeration cap of 15 exceeded by the "
                                               "directed paths into 6 that meet a path into 4$"):
        enumerate_simple_treks(g, 4, 6, cap=15)


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_listing_matches_the_reference_on_every_ordered_pair(cls):
    # 150 seeded graphs a class, n 2-8: the same treks, as multisets, as a
    # listing that walks the edge sets itself and tests each triple whole
    pairs = 0
    for seed in range(150):
        n = 2 + seed % 7
        g = random_graph(cls, n, seed, 0.45)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert Counter(enumerate_simple_treks(g, i, j)) \
                    == Counter(simple_treks_reference(g, i, j)), (cls, seed, i, j)
                pairs += 1
    assert pairs == 4292


def test_listing_on_the_highest_ids_costs_what_it_lists():
    # the complete DAG on the ten highest ids of a MAX_VERTICES graph lists
    # the treks of the complete 10-vertex DAG, relabelled, and about as fast:
    # a mask keyed by vertex id would be a million bits wide.  Building the
    # graph takes seconds, so only the listing is timed.
    shift = MAX_VERTICES - 10
    small = _complete_dag(10)
    g = make_graph(MAX_VERTICES,
                   directed=[(a + shift, b + shift) for a, b in small.directed_edges])
    start = time.process_time()
    found = enumerate_simple_treks(g, MAX_VERTICES - 1, MAX_VERTICES)
    elapsed = time.process_time() - start

    def shifted(path):
        return tuple(v + shift for v in path)

    assert found == [Trek(shifted(t.left), t.middle_kind, shifted(t.middle), shifted(t.right))
                     for t in enumerate_simple_treks(small, 9, 10)]
    assert elapsed < 1


def test_self_trek_is_only_trivial_when_sink_shared():
    # left and right would both end at 4, so nontrivial tops are never simple
    assert len(enumerate_simple_treks(choke_graph(), 4, 4)) == 1


def test_cap_bounds_the_listing_of_undirected_middles():
    # K9 with every vertex in U has 109,600 undirected paths from vertex 1:
    # the cap is hit after 11 of them.  A neighbour list is read once per
    # path extended, the start and the 10 middles within the cap.
    g = make_graph(9, undirected=[(a, b) for a in range(1, 10) for b in range(a + 1, 10)])
    reads = []

    class CountedLists(list):
        def __getitem__(self, v):
            reads.append(v)
            return super().__getitem__(v)

    object.__setattr__(g, "_undirected_lists", CountedLists(g._undirected_lists))
    with pytest.raises(CapExceededError, match="^enumeration cap of 10 exceeded by the "
                                               "undirected paths from 1$"):
        enumerate_simple_treks(g, 1, 2, cap=10)
    assert len(reads) <= 11


def _states(t: Trek):
    """A trek as the (vertex, level) states of a witness, from its A-end to its B-end."""
    middle = [] if t.middle_kind == MIDDLE_BIDIRECTED else [(v, 1) for v in t.middle]
    return (*[(v, 0) for v in reversed(t.left)], *middle, *[(v, 2) for v in t.right])


def _witness_ok(g, A, B, cert, treks):
    """Does verify's Menger check accept cert with treks as a witness of its size?"""
    size = len(treks)
    return _menger_ok(g, A, B, RankResult(size, cert, size, tuple(map(_states, treks))))


def test_sided_intersection_spider_pair():
    t1 = Trek((3,), None, (3,), (3, 7, 5))
    t2 = Trek((6, 7, 1), None, (6,), (6,))
    assert not has_sided_intersection_reference(TrekSystem((t1, t2)))
    assert _witness_ok(spider_graph(), {1, 3}, {5, 6}, SeparationTriple.of(cl={7}, cr={7}),
                       (t1, t2))


def test_sided_intersection_duplicate_trek():
    g, A, B, cut = choke_graph(), {1, 3}, {4, 5}, SeparationTriple.of(cl={1, 3})
    t = Trek((1,), None, (1,), (1, 2, 4))
    assert not _witness_ok(g, A, B, cut, (t, t))
    sys2 = (Trek((1,), None, (1,), (1, 2, 4)), Trek((1, 3), None, (1,), (1, 3, 4, 5)))
    assert has_sided_intersection_reference(TrekSystem(sys2))
    assert not _witness_ok(g, A, B, cut, sys2)
    assert _witness_ok(g, A, B, SeparationTriple.of(cr={4}), sys2[:1])


def test_choke_every_pair_system_crosses():
    g = choke_graph()
    table = {(a, b): enumerate_simple_treks(g, a, b)
             for a in (1, 3) for b in (4, 5)}
    for b1, b2 in [(4, 5), (5, 4)]:
        for t1 in table[(1, b1)]:
            for t2 in table[(3, b2)]:
                assert has_sided_intersection_reference(TrekSystem((t1, t2)))
                assert not _witness_ok(g, {1, 3}, {4, 5}, SeparationTriple.of(cl={1, 3}),
                                       (t1, t2))


def test_exists_noncrossing_choke():
    g = choke_graph()
    res = min_t_separator(g, {1, 3}, {4, 5})
    assert len(res.treks) == 1 and _menger_ok(g, {1, 3}, {4, 5}, res)
    assert exists_noncrossing_system_reference(g, {1, 3}, {4, 5}, 1)
    assert not exists_noncrossing_system_reference(g, {1, 3}, {4, 5}, 2)


def test_exists_noncrossing_spider():
    g = spider_graph()
    res = min_t_separator(g, {1, 2, 3}, {4, 5, 6})
    assert len(res.treks) == 2 and _menger_ok(g, {1, 2, 3}, {4, 5, 6}, res)
    assert exists_noncrossing_system_reference(g, {1, 2, 3}, {4, 5, 6}, 2)
    assert not exists_noncrossing_system_reference(g, {1, 2, 3}, {4, 5, 6}, 3)


dag_cases = st.tuples(st.integers(2, 6), st.integers(0, 10**6))


@settings(max_examples=60)
@given(dag_cases, st.data())
def test_enumerated_treks_are_simple(case, data):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    for t in enumerate_simple_treks(g, i, j):
        assert is_simple_reference(t)
        assert t.left[-1] == i and t.right[-1] == j


@settings(max_examples=40)
@given(dag_cases)
def test_noncrossing_monotone_in_r(case):
    # a system of r treks exists for every r up to the min-cut rank, none above
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    A = set(range(1, n // 2 + 1))
    B = set(range(n // 2 + 1, n + 1))
    if not A or not B:
        return
    answers = [exists_noncrossing_system_reference(g, A, B, r)
               for r in range(1, min(len(A), len(B)) + 1)]
    rank = min_t_separator(g, A, B).rank
    assert answers == [r <= rank for r in range(1, len(answers) + 1)]
