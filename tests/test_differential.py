"""The adjacency search against the explicit trek network it replaced.

Every answer of `min_t_separator`, `is_t_separating` and `ci_implied` must
be the one the network code in `separation_reference` gives: same rank,
same certificate, same verdicts.
"""

import random
from collections import Counter

import pytest

from separation_reference import (ci_implied_reference, is_t_separating_reference,
                                  min_t_separator_reference)
from treksep import separation
from treksep.graph import DAG, MIXED, UNDIRECTED, make_graph
from treksep.separation import (SeparationTriple, ci_implied, is_t_separating,
                                min_t_separator)
from treksep.verify import random_graph


def _sample(rng, n, low, high):
    return set(rng.sample(range(1, n + 1), rng.randint(low, min(high, n))))


def _triples(rng, n, A, B, cert):
    """Triples to test: the certificate, the certificate less one member, the
    middle level of A & B (a bidirected edge at a shared vertex i leaves the
    trek i <- (latent) -> i open) and a random one."""
    out = [cert, SeparationTriple.of(cm=A & B)]
    levels = [cert.c_left, cert.c_mid, cert.c_right]
    for k, level in enumerate(levels):
        for v in sorted(level)[:1]:
            out.append(SeparationTriple.of(*(lv - {v} if i == k else lv
                                             for i, lv in enumerate(levels))))
    out.append(SeparationTriple.of(*(_sample(rng, n, 0, 2) for _ in range(3))))
    return out


def _same_answers(g, A, B, C, rng):
    res = min_t_separator(g, A, B)
    assert res == min_t_separator_reference(g, A, B), (A, B)
    for triple in _triples(rng, g.m, A, B, res.certificate):
        assert is_t_separating(g, A, B, triple) \
            == is_t_separating_reference(g, A, B, triple), (A, B, triple)
    verdict = ci_implied(g, A, B, C)
    assert verdict == ci_implied_reference(g, A, B, C), (A, B, C)
    return res.rank, verdict


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_small_queries_match_the_network(cls):
    rng = random.Random(f"differential/{cls}")
    seen = Counter()
    for _ in range(1000):
        n = rng.randint(2, 14)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        A, B, C = _sample(rng, n, 1, 4), _sample(rng, n, 1, 4), _sample(rng, n, 0, 4)
        rank, verdict = _same_answers(g, A, B, C, rng)
        seen[rank] += 1
        seen[verdict] += 1
        seen["A&B"] += bool(A & B)
        seen["A&C"] += bool(A & C)
    assert min(seen[r] for r in range(4)) >= 20 and min(seen.values()) >= 20, seen


def _large_graph(rng, n=1000, u=400, directed=1800, undirected=600, bidirected=600):
    """Mixed graph of the benchmark's large shape: U = 1..u, directed edges point up in id."""

    def pairs(lo, hi, count):
        chosen = set()
        while len(chosen) < count:
            i, j = sorted(rng.sample(range(lo, hi + 1), 2))
            chosen.add((i, j))
        return sorted(chosen)

    return make_graph(n, directed=pairs(1, n, directed), undirected=pairs(1, u, undirected),
                      bidirected=pairs(u + 1, n, bidirected), u=range(1, u + 1))


def test_large_graphs_match_the_network():
    rng = random.Random("differential/large")
    ranks = []
    for _ in range(4):
        g = _large_graph(rng)
        for _ in range(8):
            A, B, C = _sample(rng, g.m, 1, 12), _sample(rng, g.m, 1, 12), _sample(rng, g.m, 0, 6)
            ranks.append(_same_answers(g, A, B, C, rng)[0])
    assert max(ranks) >= 3, ranks


def test_wide_queries_on_large_graphs_match_the_network(monkeypatch):
    # with |A| = |B| = 12 one search finds several seed-disjoint paths
    augmented = []
    real = separation._search

    def recorded(*args):
        order, ends, reached = real(*args)
        augmented.append(len(ends))
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", recorded)
    rng = random.Random("differential/large/wide")
    for _ in range(4):
        g = _large_graph(rng)
        for _ in range(5):
            A, B = set(rng.sample(range(1, g.m + 1), 12)), set(rng.sample(range(1, g.m + 1), 12))
            assert min_t_separator(g, A, B) == min_t_separator_reference(g, A, B), (A, B)
    assert max(augmented) >= 3, augmented


def _relabelled(g, rng):
    """g with its ids permuted at random, and the map from old ids to new.

    Directed edges then point both ways in id, and U is no longer 1..u.
    """
    ids = list(g.vertices)
    rng.shuffle(ids)
    new = dict(zip(g.vertices, ids))

    def pairs(edges):
        return [(new[i], new[j]) for i, j in edges]

    h = make_graph(g.m, pairs(g.directed_edges), pairs(g.undirected_edges),
                   pairs(g.bidirected_edges), u=[new[v] for v in g.u_set])
    assert h.u_set == {new[v] for v in g.u_set}
    return h, new


def _same_relabelled_answers(g, A, B, C, rng):
    """The answers on a relabelled g are the reference's, and the ranks and verdict are g's."""
    h, new = _relabelled(g, rng)
    A2, B2, C2 = ({new[v] for v in S} for S in (A, B, C))
    expected = min_t_separator(g, A, B).rank, ci_implied(g, A, B, C)
    assert _same_answers(h, A2, B2, C2, rng) == expected, (A, B, C)
    return h


@pytest.mark.parametrize("cls", [DAG, MIXED])
def test_relabelled_small_queries_match_the_network(cls):
    rng = random.Random(f"differential/relabelled/{cls}")
    downward = 0
    for _ in range(200):
        n = rng.randint(2, 14)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        A, B, C = _sample(rng, n, 1, 4), _sample(rng, n, 1, 4), _sample(rng, n, 0, 4)
        h = _same_relabelled_answers(g, A, B, C, rng)
        downward += any(i > j for i, j in h.directed_edges)
    assert downward >= 100, downward


def test_relabelled_large_graph_matches_the_network():
    rng = random.Random("differential/relabelled/large")
    g = _large_graph(rng)
    for _ in range(8):
        A, B, C = _sample(rng, g.m, 1, 12), _sample(rng, g.m, 1, 12), _sample(rng, g.m, 0, 6)
        _same_relabelled_answers(g, A, B, C, rng)
