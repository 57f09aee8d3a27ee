"""The sparse F_p oracle against the dense one it replaced, and against the
min cut at scale.

`tests/oracle_reference.py` keeps the oracle as it stood when every column
of Lambda^{-1} swept all m vertices, K was solved by dense Gauss-Jordan and
a K singular mod PRIME was drawn again.  The oracle never solves K: it ranks
the matrix N whose Schur complement of K is Sigma_{A,B}.  Both draw the
same parameters from the same generators, so their answers must agree
exactly whenever every trial draws a K that is nonsingular mod PRIME, as at
PRIME = 2^61 - 1.  Under small primes K is often singular; the oracle's
answer then stays one-sided, never above the min cut.
"""

import random

import pytest

import oracle_reference
from oracle_reference import generic_rank_oracle_reference
from test_algebra import singular_k_trials
from treksep import algebra
from treksep.algebra import generic_rank_oracle
from treksep.graph import DAG, MIXED, UNDIRECTED, make_graph
from treksep.separation import min_t_separator
from treksep.verify import random_graph

CLASSES = (DAG, UNDIRECTED, MIXED)


def _queries(cls, count, seed, max_n=60):
    """Seeded (graph, A, B, seed) with n in 2..max_n and |A|, |B| <= 8."""
    rng = random.Random(f"oracle/{cls}/{seed}")
    for _ in range(count):
        n = rng.randint(2, max_n)
        g = random_graph(cls, n, rng.getrandbits(32), rng.choice((0.05, 0.15, 0.4)))
        A = rng.sample(range(1, n + 1), rng.randint(1, min(8, n)))
        B = rng.sample(range(1, n + 1), rng.randint(1, min(8, n)))
        yield g, A, B, rng.getrandbits(32)


def _compare_oracle(count, seed) -> int:
    """Check the oracle against the reference on seeded queries, trials 1
    and 5: equal when every trial draws a K that is nonsingular mod PRIME,
    and otherwise at most the reference and the min cut.  Return the number
    of answers where some trial drew a singular K."""
    singular = 0
    for cls in CLASSES:
        for g, A, B, s in _queries(cls, count, seed):
            for trials in (1, 5):
                new = generic_rank_oracle(g, A, B, s, trials)
                ref = generic_rank_oracle_reference(g, A, B, s, trials)
                if singular_k_trials(g, s, trials):
                    singular += 1
                    # The min cut, the generic rank, bounds every trial; on
                    # these queries the reference's redrawn K bounds it too.
                    assert new <= min(ref, min_t_separator(g, A, B).rank), \
                        (g, A, B, s, trials)
                else:
                    assert new == ref, (g, A, B, s, trials)
    return singular


def test_oracle_matches_dense_reference():
    assert _compare_oracle(25, 2) == 0


@pytest.mark.parametrize("prime", [5, 7, 11])
def test_small_prime_matches_dense_reference(monkeypatch, prime):
    monkeypatch.setattr(algebra, "PRIME", prime)
    monkeypatch.setattr(oracle_reference, "PRIME", prime)
    singular = _compare_oracle(12, prime)
    assert 0 < singular < 3 * 12 * 2  # both kinds of answer occur


def _bottleneck_graph(cls, n, density, seed, k=6):
    """A seeded random graph whose edges between odd and even vertices all
    meet one of k odd connectors, and two queries (A, B) with A among the
    other odd vertices and B among the even ones, |A| = |B| = 8.

    Every trek from A to B passes a connector, so the rank is at most k:
    a wrong K solution or a wrong column of Lambda^{-1} tends to lift it
    above the min cut, or to drop it below.
    """
    g = random_graph(cls, n, seed, density)
    rng = random.Random(seed)
    connectors = set(rng.sample(range(1, n + 1, 2), k))

    def keep(edges):
        return [e for e in edges if e[0] % 2 == e[1] % 2 or connectors & set(e)]

    g = make_graph(n, directed=keep(g.directed_edges), undirected=keep(g.undirected_edges),
                   bidirected=keep(g.bidirected_edges), u=g.u_set)
    odd = [v for v in range(1, n + 1, 2) if v not in connectors]
    even = list(range(2, n + 1, 2))
    return g, [(rng.sample(odd, 8), rng.sample(even, 8)) for _ in range(2)]


SCALE_GRAPHS = [  # (class, n, density, seed)
    (UNDIRECTED, 150, 0.04, 1), (UNDIRECTED, 250, 0.025, 2),
    (UNDIRECTED, 400, 0.015, 3),
    (MIXED, 150, 0.08, 4), (MIXED, 250, 0.05, 5), (MIXED, 400, 0.03, 6),
]


@pytest.mark.parametrize("cls, n, density, seed", SCALE_GRAPHS)
def test_oracle_equals_min_cut_at_scale(cls, n, density, seed):
    g, queries = _bottleneck_graph(cls, n, density, seed)
    for A, B in queries:
        assert generic_rank_oracle(g, A, B, seed) == min_t_separator(g, A, B).rank, \
            (cls, n, seed, A, B)
