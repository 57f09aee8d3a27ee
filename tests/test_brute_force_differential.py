"""The shared disjoint-system search against the searches it replaced, and
the min-cut rank against the brute-force trek-system search.

`tests/brute_force_reference.py` keeps the three capped backtracking
searches that `exists_noncrossing_system`, `gvl_minor_two_ways` and
`undirected_minor_check` each wrote for themselves.  On seeded random DAG,
Undirected and Mixed graphs (n 2..6) the library must give the same answers
as the last two, and raise CapExceededError on exactly the same queries.
The first is no longer in the library, so it decides the min-cut rank on
its own: a system of rank treks with no sided intersection exists, and
none of rank + 1 (n 2..7).
"""

import random

from brute_force_reference import (exists_noncrossing_system_reference,
                                   gvl_minor_two_ways_reference,
                                   undirected_minor_check_reference)
from treksep.algebra import gvl_minor_two_ways, sample_parameters, undirected_minor_check
from treksep.graph import DAG, MIXED, UNDIRECTED, graph_class
from treksep.separation import min_t_separator
from treksep.treks import CapExceededError
from treksep.verify import random_graph

QUERIES_PER_CLASS = 520


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except CapExceededError as exc:
        return ("cap exceeded", exc.cap)


def _queries(cls, tag):
    rng = random.Random(f"brute-force/{tag}")
    for _ in range(QUERIES_PER_CLASS):
        n = rng.randint(2, 6)
        g = random_graph(cls, n, rng.getrandbits(32), rng.choice((0.3, 0.5, 0.8)))
        size = rng.randint(1, min(3, n))
        A = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        B = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        R = frozenset(rng.sample(range(1, n + 1), size))
        S = frozenset(rng.sample(range(1, n + 1), size))
        yield g, A, B, R, S, rng.randint(1, min(len(A), len(B))), rng.getrandbits(32)


def test_searches_match_the_brute_force_references():
    seen = {"queries": 0, "undirected": set(), "gvl nonzero": 0}
    for cls in (DAG, UNDIRECTED, MIXED):
        for g, _, _, R, S, _, seed in _queries(cls, cls):  # A, B, r: the stream's draws
            seen["queries"] += 1
            p = sample_parameters(g, seed)
            if graph_class(g) == DAG:
                got = _outcome(gvl_minor_two_ways, g, p, R, S)
                assert got == _outcome(gvl_minor_two_ways_reference, g, p, R, S), \
                    (g, sorted(R), sorted(S))
                seen["gvl nonzero"] += got[1] != 0
            if graph_class(g) == UNDIRECTED:
                got = _outcome(undirected_minor_check, g, p, R, S)
                assert got == _outcome(undirected_minor_check_reference, g, p, R, S), \
                    (g, sorted(R), sorted(S))
                seen["undirected"].add(got[1])
    # the comparison is not vacuous: every outcome occurs
    assert seen["queries"] >= 1_500
    assert seen["undirected"] == {True, False} and seen["gvl nonzero"] > 0


RANK_QUERIES_PER_CLASS = 700


def test_min_cut_rank_is_the_largest_noncrossing_system():
    ranks = set()
    for cls in (DAG, UNDIRECTED, MIXED):
        rng = random.Random(f"min-cut-vs-brute-force/{cls}")
        for _ in range(RANK_QUERIES_PER_CLASS):
            n = rng.randint(2, 7)
            g = random_graph(cls, n, rng.getrandbits(32), rng.choice((0.3, 0.5, 0.8)))
            A = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            B = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            rank = min_t_separator(g, A, B).rank
            ranks.add(rank)
            if rank:
                assert exists_noncrossing_system_reference(g, A, B, rank), (g, A, B, rank)
            if rank < min(len(A), len(B)):
                assert not exists_noncrossing_system_reference(g, A, B, rank + 1), \
                    (g, A, B, rank)
    assert ranks == {0, 1, 2, 3}
