import time

import pytest
from hypothesis import given, settings, strategies as st

from treksep.graph import DAG, make_graph
from treksep.instances import choke_graph, spider_graph
from treksep.treks import (CapExceededError, Trek, TrekSystem,
                           enumerate_simple_treks, exists_noncrossing_system,
                           has_sided_intersection, is_simple, trek_monomial)
from treksep.verify import random_graph


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
    assert str(trek_monomial(g, t)) == "lambda(1,3)*lambda(2,4)*phi(1,2)"


def test_undirected_middle_trek():
    g = make_graph(4, directed=[(1, 3), (2, 4)], undirected=[(1, 2)])
    treks = enumerate_simple_treks(g, 3, 4)
    kinds = {t.middle_kind for t in treks}
    assert "undirected" in kinds
    mono = str(trek_monomial(g, next(t for t in treks if t.middle_kind == "undirected")))
    assert mono == "lambda(1,3)*lambda(2,4)*psi(1,2)"


def test_monomial_examples():
    g = make_graph(2, directed=[(1, 2)])
    t = enumerate_simple_treks(g, 1, 2)[0]
    assert str(trek_monomial(g, t)) == "lambda(1,2)*phi(1,1)"
    trivial = Trek((1,), None, (1,), (1,))
    assert str(trek_monomial(g, trivial)) == "phi(1,1)"


def test_cap_exceeded():
    g = choke_graph()
    with pytest.raises(CapExceededError):
        enumerate_simple_treks(g, 1, 4, cap=1)


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


def test_self_trek_is_only_trivial_when_sink_shared():
    # left and right would both end at 4, so nontrivial tops are never simple
    assert len(enumerate_simple_treks(choke_graph(), 4, 4)) == 1


def test_sided_intersection_spider_pair():
    t1 = Trek((3,), None, (3,), (3, 7, 5))
    t2 = Trek((6, 7, 1), None, (6,), (6,))
    assert not has_sided_intersection(TrekSystem((t1, t2)))


def test_sided_intersection_duplicate_trek():
    t = Trek((1,), None, (1,), (1, 2, 4))
    with pytest.raises(ValueError):
        TrekSystem((t, t))
    sys2 = TrekSystem((Trek((1,), None, (1,), (1, 2, 4)),
                       Trek((1, 3), None, (1,), (1, 3, 4, 5))))
    assert has_sided_intersection(sys2)


def test_choke_every_pair_system_crosses():
    g = choke_graph()
    table = {(a, b): enumerate_simple_treks(g, a, b)
             for a in (1, 3) for b in (4, 5)}
    for b1, b2 in [(4, 5), (5, 4)]:
        for t1 in table[(1, b1)]:
            for t2 in table[(3, b2)]:
                assert has_sided_intersection(TrekSystem((t1, t2)))


def test_exists_noncrossing_choke():
    g = choke_graph()
    assert exists_noncrossing_system(g, {1, 3}, {4, 5}, 1)
    assert not exists_noncrossing_system(g, {1, 3}, {4, 5}, 2)


def test_exists_noncrossing_spider():
    g = spider_graph()
    assert exists_noncrossing_system(g, {1, 2, 3}, {4, 5, 6}, 2)
    assert not exists_noncrossing_system(g, {1, 2, 3}, {4, 5, 6}, 3)


def test_exists_noncrossing_argument_checks():
    g = choke_graph()
    with pytest.raises(ValueError):
        exists_noncrossing_system(g, {1}, {4}, 0)
    with pytest.raises(ValueError):
        exists_noncrossing_system(g, {1}, {4}, 2)


dag_cases = st.tuples(st.integers(2, 6), st.integers(0, 10**6))


@settings(max_examples=60)
@given(dag_cases, st.data())
def test_enumerated_treks_are_simple(case, data):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    for t in enumerate_simple_treks(g, i, j):
        assert is_simple(t)
        assert t.sink_left == i and t.sink_right == j


@settings(max_examples=40)
@given(dag_cases)
def test_noncrossing_monotone_in_r(case):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    A = set(range(1, n // 2 + 1))
    B = set(range(n // 2 + 1, n + 1))
    if not A or not B:
        return
    answers = [exists_noncrossing_system(g, A, B, r)
               for r in range(1, min(len(A), len(B)) + 1)]
    assert answers == sorted(answers, reverse=True)
