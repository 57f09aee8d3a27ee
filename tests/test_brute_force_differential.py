"""The shared disjoint-system search against the searches it replaced.

`tests/brute_force_reference.py` keeps the three capped backtracking
searches that `exists_noncrossing_system`, `gvl_minor_two_ways` and
`undirected_minor_check` each wrote for themselves, and the sided
intersection test they used.  On seeded random DAG, Undirected and Mixed
graphs (n 2..6) the library must give the same answers, and raise
CapExceededError on exactly the same queries.
"""

import random
from itertools import product

from brute_force_reference import (exists_noncrossing_system_reference,
                                   gvl_minor_two_ways_reference,
                                   has_sided_intersection_reference,
                                   undirected_minor_check_reference)
from treksep.algebra import gvl_minor_two_ways, sample_parameters, undirected_minor_check
from treksep.graph import DAG, MIXED, UNDIRECTED, graph_class
from treksep.treks import (MIDDLE_BIDIRECTED, CapExceededError, TrekSystem,
                           enumerate_simple_treks, exists_noncrossing_system,
                           has_sided_intersection)
from treksep.verify import random_graph

QUERIES_PER_CLASS = 520
CAPS = (5, 40, 20_000)
TREKS_PER_PAIR = 12  # treks of each (a, b) pair tried in the sided-intersection pairs


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


def _trek_pairs(g, A, B):
    """Pairs of simple treks with distinct A-ends and distinct B-ends."""
    table = {}
    for a, b in product(sorted(A), sorted(B)):
        try:
            table[(a, b)] = enumerate_simple_treks(g, a, b, cap=2_000)[:TREKS_PER_PAIR]
        except CapExceededError:
            table[(a, b)] = []
    for (a, b), (c, d) in product(table, repeat=2):
        if a < c and b != d:
            yield from product(table[(a, b)], table[(c, d)])


def test_searches_match_the_brute_force_references():
    seen = {"queries": 0, "cap exceeded": 0, "systems": set(), "undirected": set(),
            "gvl nonzero": 0, "sided": set(), "same bidirected edge": 0}
    for cls in (DAG, UNDIRECTED, MIXED):
        for g, A, B, R, S, r, seed in _queries(cls, cls):
            seen["queries"] += 1
            for cap in CAPS:
                got = _outcome(exists_noncrossing_system, g, A, B, r, cap=cap)
                want = _outcome(exists_noncrossing_system_reference, g, A, B, r, cap=cap)
                assert got == want, (g, sorted(A), sorted(B), r, cap)
                seen["cap exceeded"] += isinstance(got, tuple)
                seen["systems"].add(got)
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
            for t, u in _trek_pairs(g, A, B):
                system = TrekSystem((t, u))
                verdict = has_sided_intersection(system)
                assert verdict == has_sided_intersection_reference(system), (g, t, u)
                seen["sided"].add(verdict)
                seen["same bidirected edge"] += (
                    t.middle_kind == u.middle_kind == MIDDLE_BIDIRECTED
                    and sorted(t.middle) == sorted(u.middle))
    # the comparison is not vacuous: every outcome occurs
    assert seen["queries"] >= 1_500
    assert seen["cap exceeded"] > 0 and seen["systems"] >= {True, False}
    assert seen["undirected"] == {True, False} and seen["gvl nonzero"] > 0
    assert seen["sided"] == {True, False} and seen["same bidirected edge"] > 0
