import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treksep
from treksep.graph import DAG, MIXED, UNDIRECTED, make_graph
from treksep.instances import (CHOKE_A, CHOKE_B, SPIDER_A, SPIDER_B,
                               choke_graph, spider_graph)
from treksep.separation import (NotADAGError, SeparationTriple, ci_implied,
                                d_sep_via_t_sep, d_separates, generic_rank,
                                is_t_separating, min_t_separator,
                                trek_network, vanishing_tetrad)
from treksep.verify import random_graph


def _reachable(net):
    seen = {net.source}
    stack = [net.source]
    while stack:
        u = stack.pop()
        for e in net.out[u]:
            x = net.head[e]
            if net.cap[e] > 0 and x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def test_aux_graph_simple_dag():
    g = make_graph(2, directed=[(1, 2)])
    net = trek_network(g, {1}, {2})
    assert len(net.out) == 2 + 6 * 2
    assert net.sink in _reachable(net)


def test_aux_graph_no_treks():
    net = trek_network(make_graph(2), {1}, {2})
    assert net.sink not in _reachable(net)


def test_aux_graph_undirected_middle():
    g = make_graph(3, undirected=[(1, 2), (2, 3)])
    net = trek_network(g, {1}, {3})
    assert net.sink in _reachable(net)


def test_aux_graph_bidirected_middle():
    g = make_graph(2, bidirected=[(1, 2)])
    net = trek_network(g, {1}, {2})
    assert len(net.out) == 2 + 6 * 2
    assert net.sink in _reachable(net)
    # a middle cut at 1 leaves the trek 1 <- (latent) -> 1 open
    assert not is_t_separating(g, {1}, {1}, SeparationTriple.of(cm={1}))
    assert is_t_separating(make_graph(2), {1}, {1}, SeparationTriple.of(cm={1}))


_OPTIMIZED_QUERIES = """
import sys
from treksep import separation
from treksep.instances import CHOKE_A, CHOKE_B, choke_graph
print(sys.flags.optimize)
g = choke_graph()
res = separation.min_t_separator(g, CHOKE_A, CHOKE_B)
print(res.rank, sorted(res.certificate.c_right))
print(separation.is_t_separating(g, CHOKE_A, CHOKE_B,
                                 separation.SeparationTriple.of(cr={5})))
real = separation.trek_network

def doubled(*args, **kwargs):  # split capacity 2 breaks flow value == cut size
    net = real(*args, **kwargs)
    net.cap[0:len(net.out) - 2:2] = [2] * ((len(net.out) - 2) // 2)
    return net

separation.trek_network = doubled
try:
    separation.min_t_separator(g, CHOKE_A, CHOKE_B)
except separation.InternalError as exc:
    print("InternalError:", exc)
"""


def test_flow_invariants_hold_under_python_O():
    src = str(Path(treksep.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_QUERIES],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1", "1 [4]", "False",
        "InternalError: certificate size 1 differs from flow value 2"]


def test_tsep_choke():
    g = choke_graph()
    assert is_t_separating(g, CHOKE_A, CHOKE_B, SeparationTriple.of(cr={4}))
    assert not is_t_separating(g, CHOKE_A, CHOKE_B, SeparationTriple.of(cr={5}))


def test_tsep_a_on_left_always_separates():
    for g, A, B in [(choke_graph(), CHOKE_A, CHOKE_B),
                    (spider_graph(), SPIDER_A, SPIDER_B)]:
        assert is_t_separating(g, A, B, SeparationTriple.of(cl=A))
        assert is_t_separating(g, A, B, SeparationTriple.of(cr=B))


def test_tsep_spider_hub():
    g = spider_graph()
    assert not is_t_separating(g, SPIDER_A, SPIDER_B, SeparationTriple.of(cl={7}))
    assert is_t_separating(g, SPIDER_A, SPIDER_B,
                           SeparationTriple.of(cl={7}, cr={7}))


def test_min_separator_choke():
    res = min_t_separator(choke_graph(), CHOKE_A, CHOKE_B)
    assert res.rank == res.flow_value == res.certificate.size() == 1
    assert res.certificate.c_right == {4}


def test_min_separator_spider():
    res = min_t_separator(spider_graph(), SPIDER_A, SPIDER_B)
    assert res.rank == 2
    assert is_t_separating(spider_graph(), SPIDER_A, SPIDER_B, res.certificate)


def test_min_separator_shared_vertex():
    res = min_t_separator(make_graph(1), {1}, {1})
    assert res.rank == 1
    cert = res.certificate
    assert cert.size() == 1 and (cert.c_left == {1} or cert.c_right == {1})


def test_generic_rank_examples():
    g = make_graph(4, undirected=[(1, 2), (2, 3), (3, 4)])
    assert generic_rank(g, {1, 2}, {3, 4}) == 1
    collider = make_graph(3, directed=[(1, 3), (2, 3)])
    assert generic_rank(collider, {1}, {2}) == 0
    mixed = make_graph(4, directed=[(1, 3), (2, 4)], bidirected=[(1, 2)])
    assert generic_rank(mixed, {3}, {4}) == 1
    assert generic_rank(g, set(), {1}) == 0


def test_dsep_basics():
    collider = make_graph(3, directed=[(1, 3), (2, 3)])
    assert d_separates(collider, {1}, {2}, set())
    assert not d_separates(collider, {1}, {2}, {3})
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    assert d_separates(chain, {1}, {3}, {2})
    assert not d_separates(chain, {1}, {3}, set())


def test_dsep_descendant_of_collider_opens():
    g = make_graph(4, directed=[(1, 3), (2, 3), (3, 4)])
    assert d_separates(g, {1}, {2}, set())
    assert not d_separates(g, {1}, {2}, {4})


def test_dsep_requires_dag_and_disjoint():
    g = make_graph(2, undirected=[(1, 2)])
    with pytest.raises(NotADAGError):
        d_separates(g, {1}, {2}, set())
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="disjoint"):
        d_separates(chain, {1}, {1}, set())


def test_dsep_via_tsep_matches_on_examples():
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    assert d_sep_via_t_sep(chain, {1}, {3}, {2})
    collider = make_graph(3, directed=[(1, 3), (2, 3)])
    assert not d_sep_via_t_sep(collider, {1}, {2}, {3})


def test_ci_examples():
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    assert ci_implied(chain, {1}, {3}, {2})
    assert not ci_implied(choke_graph(), {1}, {5}, set())
    assert ci_implied(choke_graph(), {1}, {5}, {4})
    und = make_graph(3, undirected=[(1, 2), (2, 3)])
    assert ci_implied(und, {1}, {3}, {2})


def test_vanishing_tetrad_choke():
    cp = vanishing_tetrad(choke_graph(), (1, 3), (4, 5))
    assert cp is not None and cp.vertex == 4 and cp.side == "right"


def test_vanishing_tetrad_spider_blocks():
    # {1,2} and {4,5} all hang off the hub: rank 1, hub certificate
    cp = vanishing_tetrad(spider_graph(), (1, 2), (4, 5))
    assert cp is not None and cp.vertex == 7
    # {1,3} vs {4,6} straddles the hub on both sides: rank 2, no certificate
    assert vanishing_tetrad(spider_graph(), (1, 3), (4, 6)) is None


def test_vanishing_tetrad_overlapping_pairs():
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    cp = vanishing_tetrad(chain, (1, 2), (2, 3))
    assert cp is not None and cp.vertex == 2
    # collider: sigma_12 = 0 but the off-diagonal entries keep rank 2
    collider = make_graph(3, directed=[(1, 3), (2, 3)])
    assert vanishing_tetrad(collider, (1, 3), (2, 3)) is None


graph_cases = st.tuples(st.sampled_from([DAG, UNDIRECTED, MIXED]),
                        st.integers(2, 6), st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(graph_cases, st.data())
def test_rank_symmetric_and_bounded(case, data):
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    A = frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    B = frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    r = generic_rank(g, A, B)
    assert r == generic_rank(g, B, A)
    assert r <= min(len(A), len(B))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(2, 6), st.integers(0, 10**6)), st.data())
def test_dsep_equivalence_property(case, data):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    vs = list(range(1, n + 1))
    A = data.draw(st.sets(st.sampled_from(vs), min_size=1, max_size=2))
    rest = [v for v in vs if v not in A]
    if not rest:
        return
    B = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2))
    rest2 = [v for v in rest if v not in B]
    C = data.draw(st.sets(st.sampled_from(rest2), max_size=3)) if rest2 else set()
    assert d_separates(g, A, B, C) == d_sep_via_t_sep(g, A, B, C) \
        == ci_implied(g, A, B, C)


@settings(max_examples=40, deadline=None)
@given(graph_cases, st.data())
def test_aux_separation_blocks_all_simple_treks(case, data):
    # a triple that separates in the auxiliary network blocks every simple trek
    from treksep.treks import CapExceededError, enumerate_simple_treks
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    A = frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=2)))
    B = frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=2)))
    cert = min_t_separator(g, A, B).certificate
    try:
        for a in A:
            for b in B:
                for t in enumerate_simple_treks(g, a, b, cap=5000):
                    blocked = (set(t.left) & cert.c_left
                               or set(t.right) & cert.c_right)
                    if t.middle_kind == "undirected":
                        blocked = blocked or set(t.middle) & cert.c_mid
                    elif t.middle_kind is None:
                        blocked = blocked or set(t.middle) & cert.c_mid
                    assert blocked
    except CapExceededError:
        pass
