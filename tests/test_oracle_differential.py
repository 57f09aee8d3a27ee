"""The sparse F_p oracle against the dense one it replaced, and against the
min cut at scale.

`tests/oracle_reference.py` keeps the oracle as it stood when every column
of Lambda^{-1} swept all m vertices and K was solved by dense Gauss-Jordan.
Both draw the same parameters from the same generators, so their K
solutions, the draws they consume and their answers must agree exactly,
also under small primes, where K is often singular and drawn again.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle_reference
from oracle_reference import _solve_k_reference, generic_rank_oracle_reference
from test_algebra import ORACLE_RANGE_TABLE
from treksep import algebra
from treksep.algebra import _solve_k, generic_rank_oracle
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


def _k_cases(count, seed):
    """(graph, right-hand sides, generator seed) on graphs with an undirected part."""
    for cls in (UNDIRECTED, MIXED):
        for g, _, B, s in _queries(cls, count, seed):
            if g.u_set:
                rng = random.Random(s)
                rhs = [[rng.randrange(algebra.PRIME) if rng.random() < 0.5 else 0
                        for _ in B] for _ in g.u_set]
                yield g, rhs, s


def _compare_k(count, seed) -> int:
    """Check the K solutions and the draws consumed; return the number of
    cases where K was drawn more than once."""
    redrawn = 0
    for g, rhs, s in _k_cases(count, seed):
        u_vs = sorted(g.u_set)
        new, ref = random.Random(s), random.Random(s)
        assert _solve_k(g, new, u_vs, rhs) == _solve_k_reference(g, ref, u_vs, rhs), (g, s)
        assert new.getstate() == ref.getstate(), (g, s)
        once = random.Random(s)  # one draw of K: its edges, then its diagonal
        for _ in range(len(g.undirected_edges) + len(g.u_set)):
            once.randrange(1, algebra.PRIME)
        redrawn += once.getstate() != new.getstate()
    return redrawn


def _compare_oracle(count, seed):
    for cls in CLASSES:
        for g, A, B, s in _queries(cls, count, seed):
            for trials in (1, 5):
                assert generic_rank_oracle(g, A, B, s, trials) == \
                    generic_rank_oracle_reference(g, A, B, s, trials), (g, A, B, s, trials)


def test_k_solutions_match_dense_reference():
    assert _compare_k(25, 1) == 0


def test_oracle_matches_dense_reference():
    _compare_oracle(25, 2)


@pytest.mark.parametrize("prime", [5, 7, 11])
def test_small_prime_matches_dense_reference(monkeypatch, prime):
    monkeypatch.setattr(algebra, "PRIME", prime)
    monkeypatch.setattr(oracle_reference, "PRIME", prime)
    assert _compare_k(12, prime) > 0  # singular draws and redraws happen
    _compare_oracle(12, prime)


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


_OPTIMIZED_ORACLE = """
import random
import sys
import oracle_reference
import test_oracle_differential as t
from test_algebra import ORACLE_RANGE_TABLE
from treksep import algebra
from treksep.graph import make_graph

for prime in (5, 7, 11):
    algebra.PRIME = oracle_reference.PRIME = prime
    for g, rhs, s in t._k_cases(2, prime):
        u_vs = sorted(g.u_set)
        new, ref = random.Random(s), random.Random(s)
        print("K", prime, algebra._solve_k(g, new, u_vs, rhs)
              == oracle_reference._solve_k_reference(g, ref, u_vs, rhs),
              new.getstate() == ref.getstate())
    for cls in t.CLASSES:
        for g, A, B, s in t._queries(cls, 3, prime, max_n=12):
            print("oracle", prime, algebra.generic_rank_oracle(g, A, B, s, 1),
                  oracle_reference.generic_rank_oracle_reference(g, A, B, s, 1))
g = make_graph(3, directed=[(1, 2), (2, 3)])
for A, B, _ in ORACLE_RANGE_TABLE:
    try:
        print("returned", algebra.generic_rank_oracle(g, A, B, 0))
    except ValueError as exc:
        print("ValueError:", exc)
print("optimize", sys.flags.optimize)
"""


def test_oracle_checks_hold_under_python_O():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(algebra.__file__).resolve().parents[1]), str(tests)])
    outputs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", _OPTIMIZED_ORACLE],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    plain, optimized = outputs
    assert (plain[-1], optimized[-1]) == ("optimize 0", "optimize 1")
    assert plain[:-1] == optimized[:-1]
    k_lines = [line.split() for line in plain if line.startswith("K ")]
    assert k_lines and all(words[2:] == ["True", "True"] for words in k_lines)
    oracle_lines = [line.split() for line in plain if line.startswith("oracle ")]
    assert len(oracle_lines) == 27 and all(w[2] == w[3] for w in oracle_lines)
    assert [line for line in plain if line.startswith(("ValueError", "returned"))] == \
        [f"ValueError: {message}" for _, _, message in ORACLE_RANGE_TABLE]
