import gc
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treksep
from separation_reference import (ci_implied_reference, forward_arcs_reference,
                                  is_t_separating_reference, min_t_separator_reference)
from test_differential import _large_graph, _relabelled, _sample
from treksep import separation
from treksep.algebra import generic_rank_oracle
from treksep.graph import DAG, MIXED, UNDIRECTED, make_graph, parse_graph, serialize
from treksep.instances import (CHOKE_A, CHOKE_B, SPIDER_A, SPIDER_B,
                               choke_graph, spider_graph)
from treksep.separation import (NotADAGError, SeparationTriple,
                                _require_dsep_query, ci_implied,
                                d_sep_via_t_sep, d_separates, generic_rank,
                                is_t_separating, min_t_separator,
                                vanishing_tetrad)
from treksep.treks import CapExceededError
from treksep.verify import (SuiteConfig, _dsep_pairs, _menger_ok, _pair_verdicts,
                            criterion_dsep_equivalence, random_graph)


def _dsep_verdicts(g):
    """(A, B, C, d, t, ci) for every disjoint triple of g with |A|, |B| <= 2
    and |C| <= 3, as sorted tuples, by A, then C, then B: criterion 8's
    per-B view of the whole graph, its one-pair view chained over its pairs."""
    for A, C, *parts in _dsep_pairs(g):
        for B, d, t, ci in _pair_verdicts(*parts):
            yield A, B, C, d, t, ci


def _reachable(g, A, B):
    """Does some trek run from A to B, that is does the empty triple fail to separate?"""
    return not is_t_separating(g, A, B, SeparationTriple())


def _entries(g):
    """Every arc entry of g, in order: entry k lists the in-nodes out-node
    2k+1 enters.  A search from every vertex of g, with no flow, reaches and
    so lists every out-node."""
    arcs = {}
    separation._search(arcs, g, [-1] * (3 * g.m), [-1] * (6 * g.m), g.vertices, (), 0)
    return [arcs[k] for k in range(3 * g.m)]


def test_aux_graph_simple_dag():
    g = make_graph(2, directed=[(1, 2)])
    assert _entries(g) == [(2,), (4,), (10,), (8, 0), (10,), ()]
    assert _reachable(g, {1}, {2})


def test_aux_graph_no_treks():
    assert not _reachable(make_graph(2), {1}, {2})


def test_aux_graph_undirected_middle():
    g = make_graph(3, undirected=[(1, 2), (2, 3)])
    assert _reachable(g, {1}, {3})


def test_aux_graph_bidirected_middle():
    g = make_graph(2, bidirected=[(1, 2)])
    # over: the right in-nodes of 1 and 2, each once
    assert _entries(g) == [(2, 4, 10), (4,), (), (8, 10, 4), (10,), ()]
    assert _reachable(g, {1}, {2})
    # a middle cut at 1 leaves the trek 1 <- (latent) -> 1 open
    assert not is_t_separating(g, {1}, {1}, SeparationTriple.of(cm={1}))
    assert is_t_separating(make_graph(2), {1}, {1}, SeparationTriple.of(cm={1}))


def test_bidirected_endpoint_trek_skips_its_middle_level():
    # the trek i <- (latent) -> i of a bidirected edge at i runs on the left
    # and right levels of i only, through the arc left-out(i) -> right-in(i)
    endpoints = 0
    for seed in range(40):
        g = random_graph(MIXED, 3 + seed % 6, seed, 0.5)
        for i in sorted({v for edge in g.bidirected_edges for v in edge}):
            endpoints += 1
            assert not is_t_separating(g, {i}, {i}, SeparationTriple.of(cm={i}))
            assert is_t_separating(g, {i}, {i}, SeparationTriple.of(cl={i}))
            assert min_t_separator(g, {i}, {i}).rank == 1
    assert endpoints >= 40


_CACHE_QUERIES = [
    ({1, 3}, {4, 5}, SeparationTriple.of(cr={4})),
    ({1}, {5}, SeparationTriple.of(cl={2})),
    ({2, 3}, {4, 5}, SeparationTriple.of(cm={1})),
    ({1, 2, 3}, {3, 4, 5}, SeparationTriple.of(cl={1}, cr={4, 5})),
]


def _cache_answers(g, i):
    A, B, c = _CACHE_QUERIES[i]
    res = min_t_separator(g, A, B)
    return res.rank, res.certificate, is_t_separating(g, A, B, c)


def test_network_cache_alternating_graphs():
    g1 = choke_graph()
    g2 = make_graph(5, directed=[(1, 2), (2, 3), (3, 4), (1, 5), (4, 5)])
    g3 = choke_graph()  # equal to g1, but another object
    assert g3 == g1 and g3 is not g1
    alone = {id(g): [_cache_answers(g, i) for i in range(len(_CACHE_QUERIES))]
             for g in (g1, g2, g3)}
    assert alone[id(g1)] != alone[id(g2)]
    for i in range(len(_CACHE_QUERIES)):
        for g in (g1, g2, g1, g3, g2, g3):
            assert _cache_answers(g, i) == alone[id(g)][i]


def _recorded_arcs(monkeypatch):
    """Wrap `separation._search`; the list returned gets (graph, arc store)
    for each store searched, in the order of their first searches.

    Every entry stays the object its first listing made: a later search of
    the store that lists it again, or changes it, fails the query.
    """
    made, listed = [], {}  # id(arcs) -> (arcs, each entry as first listed)
    real = separation._search

    def recorded(arcs, g, *rest):
        if id(arcs) not in listed:
            made.append((g, arcs))
            listed[id(arcs)] = arcs, {}
        out = real(arcs, g, *rest)
        first = listed[id(arcs)][1]
        for k, entry in arcs.items():
            assert first.setdefault(k, entry) is entry, k
        return out

    monkeypatch.setattr(separation, "_search", recorded)
    return made


def test_network_cache_is_never_mutated(monkeypatch):
    # each query lists its own entries on first read, and a listed entry
    # stays as it was listed for the rest of the query
    made = _recorded_arcs(monkeypatch)
    g = spider_graph()
    min_t_separator(g, SPIDER_A, SPIDER_B)
    is_t_separating(g, SPIDER_A, SPIDER_B, SeparationTriple.of(cl={7}))
    with pytest.raises(ValueError, match="out of range"):
        min_t_separator(g, {1}, {8})
    with pytest.raises(ValueError, match="nonempty"):
        is_t_separating(g, set(), {1}, SeparationTriple())
    ci_implied(g, {1, 2}, {5}, {7})
    min_t_separator(g, set(g.vertices), set(g.vertices))
    assert len(made) == 3 and all(graph is g for graph, _ in made)
    assert len(made[2][1]) > len(made[0][1]) > 0
    reference = forward_arcs_reference(g)
    for _, arcs in made:
        assert all(set(entry) == set(reference[k]) for k, entry in arcs.items())


def _check_entries_read(g, queries, made):
    """Run the queries on g; each arc entry they read names every in-node once
    and, as a set, is the reference network's forward arcs from that out-node.

    made is the list `_recorded_arcs` fills.  Returns the number of distinct
    entries read and how many of them list an in-node more than once in the
    reference, as a vertex with two bidirected edges does.
    """
    made.clear()
    for A, B, C in queries:
        res = min_t_separator(g, A, B)
        is_t_separating(g, A, B, res.certificate)
        ci_implied(g, A, B, C)
    assert made and all(graph is g for graph, _ in made)
    reference = forward_arcs_reference(g)
    read = {}
    for _, arcs in made:
        for k, entry in arcs.items():
            assert len(set(entry)) == len(entry), (k, entry)
            assert set(entry) == set(reference[k]), (k, entry, reference[k])
            assert read.setdefault(k, entry) == entry, (k, entry, read[k])
    return len(read), sum(len(set(reference[k])) < len(reference[k]) for k in read)


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_arc_entries_read_match_the_network_without_repeats(monkeypatch, cls):
    made = _recorded_arcs(monkeypatch)
    rng = random.Random(f"differential/{cls}")
    read = repeated = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        queries = [(_sample(rng, n, 1, 4), _sample(rng, n, 1, 4), _sample(rng, n, 0, 4))]
        counts = _check_entries_read(g, queries, made)
        read += counts[0]
        repeated += counts[1]
    assert read >= 1000
    assert repeated >= (50 if cls == MIXED else 0), repeated


def test_arc_entries_read_on_a_relabelled_large_graph_match_the_network(monkeypatch):
    made = _recorded_arcs(monkeypatch)
    rng = random.Random("differential/relabelled/entries")
    h, _ = _relabelled(_large_graph(rng), rng)
    queries = [(_sample(rng, h.m, 1, 12), _sample(rng, h.m, 1, 12), _sample(rng, h.m, 0, 6))
               for _ in range(8)]
    read, repeated = _check_entries_read(h, queries, made)
    assert read >= 300 and repeated >= 20, (read, repeated)


def test_arcs_built_once_per_graph_by_dsep_verdicts_and_once_per_query(monkeypatch):
    made = _recorded_arcs(monkeypatch)
    g1, g2 = choke_graph(), spider_graph()
    for g, A, B in [(g1, CHOKE_A, CHOKE_B)] * 3 + [(g2, SPIDER_A, SPIDER_B)] * 2 \
            + [(g1, CHOKE_A, CHOKE_B)]:
        min_t_separator(g, A, B)
        is_t_separating(g, A, B, SeparationTriple.of(cl=A))
    ci_implied(g1, {1}, {5}, {4})
    assert [graph for graph, _ in made] == [g1] * 3 + [g2] * 2 + [g1] * 2
    made.clear()
    graphs = [g1] + [random_graph(DAG, 5, seed, 0.5) for seed in range(3)]
    for g in graphs:
        assert len(list(_dsep_verdicts(g))) > 1
    assert [graph for graph, _ in made] == graphs


def test_a_query_keeps_no_reference_to_its_graph():
    # the caller's last reference to a graph frees it, without a collection
    gc.disable()
    try:
        g = spider_graph()
        min_t_separator(g, SPIDER_A, SPIDER_B)
        ci_implied(g, {1, 2}, {5}, {7})
        alive = weakref.ref(g)
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_network_cache_shared_by_threads():
    # every thread queries its own graph; a query must never see the
    # network of another thread's graph
    graphs = [random_graph(MIXED, 5 + k, k, 0.5) for k in range(4)]
    A, B = {1, 2, 3}, {3, 4, 5}
    expected = [min_t_separator(g, A, B) for g in graphs]
    wrong = []

    def worker(k):
        for _ in range(2000):
            try:
                if min_t_separator(graphs[k], A, B) != expected[k]:
                    wrong.append(k)
            except Exception as exc:  # reported by the main thread
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_threads_fill_the_entries_of_one_fresh_graph():
    # four threads query the same graph while its entries are being listed;
    # each round starts on a fresh graph, equal to the last but another object
    text = serialize(random_graph(MIXED, 40, 7, 0.15))
    rng = random.Random("concurrent filling")
    queries = [(set(rng.sample(range(1, 41), 4)), set(rng.sample(range(1, 41), 4)))
               for _ in range(8)]
    expected = [min_t_separator(parse_graph(text), A, B) for A, B in queries]
    rounds = [parse_graph(text) for _ in range(60)]
    start = threading.Barrier(4)
    wrong, finished = [], []

    def worker(k):
        order = list(range(len(queries)))
        random.Random(k).shuffle(order)
        for g in rounds:
            start.wait(timeout=60)
            for q in order:
                try:
                    if min_t_separator(g, *queries[q]) != expected[q]:
                        wrong.append((k, q))
                except Exception as exc:  # reported by the main thread
                    wrong.append(exc)
        finished.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []
    assert len({res.rank for res in expected}) >= 2


def test_a_query_on_a_large_sparse_graph_lists_few_arc_entries(monkeypatch):
    rng = random.Random("sparse graph")
    n, u = 200_000, 80_000

    def pairs(lo, hi, count):  # directed edges point up in id
        chosen = set()
        while len(chosen) < count:
            i, j = rng.randint(lo, hi), rng.randint(lo, hi)
            if i != j:
                chosen.add((i, j) if i < j else (j, i))
        return chosen

    g = make_graph(n, directed=pairs(1, n, 100_000), undirected=pairs(1, u, 40_000),
                   bidirected=pairs(u + 1, n, 40_000), u=range(1, u + 1))
    A = rng.sample(range(1, n + 1), 8)
    B = A[:4] + rng.sample(range(1, n + 1), 4)
    made = _recorded_arcs(monkeypatch)
    assert min_t_separator(g, A, B).rank >= 4
    [(graph, arcs)] = made
    assert graph is g and 0 < len(arcs) < 0.01 * 3 * n, len(arcs)


@pytest.mark.parametrize("op", ["--", "<->"])
def test_the_first_query_on_a_100k_leaf_star_is_linear_in_its_edges(op):
    # the hub has 100,000 neighbours; a neighbour list that grew by one tuple
    # copy per edge made this query take about 30 s
    n = 100_001
    g = parse_graph(f"v {n}\n" + "".join(f"e 1 {op} {k}\n" for k in range(2, n + 1)))
    start = time.process_time()
    assert min_t_separator(g, {2}, {1, 3}).rank == 1
    assert time.process_time() - start < 5
    lists, edges = ((g._undirected_lists, g.undirected_edges) if op == "--"
                    else (g._bidirected_lists, g.bidirected_edges))
    assert lists[1] == tuple(j for _, j in edges)  # in edge order, past 64 leaves too


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
real = separation._search

def forgetful(arcs, g, prv, *rest):  # loses the units that a source feeds
    prv[:] = [-1 if unit == -2 else unit for unit in prv]
    return real(arcs, g, prv, *rest)

separation._search = forgetful
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
        "InternalError: 0 in-nodes are fed by a source, but the flow value is 1"]


def test_cut_wider_than_the_flow_raises(monkeypatch):
    # a last search that leaves one more out-node unreached widens the cut
    real = separation._search

    def widened(arcs, g, prv, via, *rest):
        order, ends, reached = real(arcs, g, prv, via, *rest)
        if not ends:
            x = next(x for x in order if not x & 1 and via[x + 1] != -1)
            via[x + 1] = -1
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", widened)
    with pytest.raises(separation.InternalError,
                       match="certificate size 2 differs from flow value 1"):
        min_t_separator(choke_graph(), CHOKE_A, CHOKE_B)


def test_an_in_node_past_the_seeds_fed_by_a_source_raises(monkeypatch):
    # the flow check counts the units fed by a source among the in-nodes the
    # augmentations wrote, not at the seeds alone: a last search that marks
    # a written in-node past the seeds as fed leaves one more than the value
    real = separation._search

    def overfed(arcs, g, prv, *rest):
        order, ends, reached = real(arcs, g, prv, *rest)
        if not ends:
            prv[next(k for k, unit in enumerate(prv) if unit >= 0)] = -2
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", overfed)
    with pytest.raises(separation.InternalError,
                       match="2 in-nodes are fed by a source, but the flow value is 1"):
        min_t_separator(choke_graph(), CHOKE_A, CHOKE_B)


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_every_search_of_a_query_starts_from_a_blank_via(monkeypatch, cls):
    # a query keeps one via and resets only what each augmenting search set:
    # its queued nodes, their in-nodes and every end it reached, kept or
    # not.  Each search must start from the via of a fresh query
    starts, rejected = [], []
    real = separation._search

    def recorded(arcs, g, prv, via, A, B, want):
        starts.append(via == separation._blank(g, B))
        order, ends, reached = real(arcs, g, prv, via, A, B, want)
        if ends and len(reached) > len(ends):  # a later search follows the rejected ends
            rejected.append(len(reached) - len(ends))
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", recorded)
    rng = random.Random(f"blank starts/{cls}")
    cases = [(make_graph(3, directed=[(1, 2), (1, 3)]), {1}, {2, 3})]  # the end at 3 rejected
    for _ in range(300):
        n = rng.randint(2, 14)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        cases.append((g, _sample(rng, n, 1, 5), _sample(rng, n, 1, 8)))
    for g, A, B in cases:
        res = min_t_separator(g, A, B)
        assert res == min_t_separator_reference(g, A, B), (A, B)
    assert len(starts) > len(cases) and all(starts)
    assert len(rejected) >= 30, rejected


def _recorded_searches(monkeypatch):
    """Wrap `separation._search`; the list returned gets (via, ends) per
    search, via as the search left it."""
    searches = []
    real = separation._search

    def recorded(arcs, g, prv, via, *rest):
        order, ends, reached = real(arcs, g, prv, via, *rest)
        searches.append((via.copy(), list(ends)))
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", recorded)
    return searches


@pytest.mark.parametrize("k", [1, 2, 5])
def test_disjoint_chains_take_two_searches(monkeypatch, k):
    # chain i runs 4i+1 -> ... -> 4i+4: one search augments all k paths from
    # k distinct seeds, and the second finds that the flow is maximum
    directed = [(4 * i + s, 4 * i + s + 1) for i in range(k) for s in range(1, 4)]
    g = make_graph(4 * k, directed=directed)
    searches = _recorded_searches(monkeypatch)
    res = min_t_separator(g, {4 * i + 1 for i in range(k)}, {4 * i + 4 for i in range(k)})
    assert res.rank == k
    assert [len(ends) for _, ends in searches] == [k, 0]


def test_one_seed_reaching_two_ends_augments_one_path(monkeypatch):
    # 1 -> 2, 1 -> 3: both ends trace back to the left in-node of 1
    g = make_graph(3, directed=[(1, 2), (1, 3)])
    searches = _recorded_searches(monkeypatch)
    assert min_t_separator(g, {1}, {2, 3}).rank == 1
    (via, ends), (_, last) = searches
    assert via[6 * 2 - 1] != -1 and via[6 * 3 - 1] != -1  # the right out-nodes of 2 and 3
    assert len(ends) == 1 and last == []


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_a_query_runs_at_most_rank_plus_one_searches(monkeypatch, cls):
    rng = random.Random(f"searches per query/{cls}")
    searches = _recorded_searches(monkeypatch)
    fewer = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        A = set(rng.sample(range(1, n + 1), rng.randint(1, min(5, n))))
        B = set(rng.sample(range(1, n + 1), rng.randint(1, min(5, n))))
        searches.clear()
        res = min_t_separator(g, A, B)
        assert res == min_t_separator_reference(g, A, B), (A, B)
        assert len(searches) <= res.rank + 1, (A, B)
        fewer += len(searches) < res.rank + 1
    assert fewer >= 50, fewer


def test_searches_enter_no_right_level_outside_the_ancestors_of_b(monkeypatch):
    # a trek ends in a directed path down into B, so the right in-node
    # 6v - 2 of a vertex v outside an(B) leads to no end of the search
    orders = []
    real = separation._search

    def recorded(*args):
        order, ends, reached = real(*args)
        orders.append(order)
        return order, ends, reached

    monkeypatch.setattr(separation, "_search", recorded)
    rng = random.Random("pruned right levels")
    chain = make_graph(8, directed=[(v, v + 1) for v in range(1, 8)])
    cases = [(chain, {1, 5}, {3})]
    for seed in range(30):  # low ids form U, and directed edges point up in id
        g = random_graph(MIXED, 12, seed, 0.3)
        cases.append((g, set(rng.sample(range(1, 13), 3)), set(rng.sample(range(1, 5), 2))))
    pruned = 0
    for g, A, B in cases:
        an_b = _ancestors_reference(g, B)
        outside = {6 * v - 2 for v in g.vertices if v not in an_b}
        pruned += len(outside)
        orders.clear()
        min_t_separator(g, A, B)
        is_t_separating(g, A, B, SeparationTriple())
        assert orders and not any(outside.intersection(order) for order in orders), (A, B)
    assert pruned >= 200


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


class _Unreadable:
    """An index list that raises when read."""

    def _read(self, *args):
        raise AssertionError("the adjacency index was read")

    __getitem__ = __iter__ = __len__ = __bool__ = get = _read


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_tsep_reads_the_edge_sets_not_the_index(cls):
    # is_t_separating searches `_trek_steps`, made from the edge sets alone,
    # so it answers as the network reference on a graph whose four index
    # lists raise when read
    rng = random.Random(f"tsep without the index/{cls}")
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        for name in ("_parent_lists", "_child_lists", "_undirected_lists", "_bidirected_lists"):
            object.__setattr__(g, name, _Unreadable())
        A, B = _sample(rng, n, 1, 4), _sample(rng, n, 1, 4)
        triple = SeparationTriple.of(*(_sample(rng, n, 0, 2) for _ in range(3)))
        verdict = is_t_separating(g, A, B, triple)
        assert verdict == is_t_separating_reference(g, A, B, triple), (A, B, triple)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_min_separator_choke():
    res = min_t_separator(choke_graph(), CHOKE_A, CHOKE_B)
    assert res.rank == res.flow_value == res.certificate.size() == 1
    assert res.certificate.c_right == {4}


def test_min_separator_choke_witness():
    # one trek, and it passes 4 on the right, where the certificate cuts
    (trek,) = min_t_separator(choke_graph(), CHOKE_A, CHOKE_B).treks
    assert trek[0] in {(1, 0), (3, 0)} and (4, 2) in trek and trek[-1][1] == 2


def test_witness_is_checked_on_large_graphs():
    rng = random.Random("witness-large")
    for _ in range(4):
        g = _large_graph(rng, n=300, u=120, directed=540, undirected=180, bidirected=180)
        for _ in range(8):
            A = frozenset(rng.sample(range(1, 301), rng.randint(1, 12)))
            B = frozenset(rng.sample(range(1, 301), rng.randint(1, 12)))
            res = min_t_separator(g, A, B)
            assert len(res.treks) == res.rank and _menger_ok(g, A, B, res)


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


@pytest.mark.parametrize("decider", [d_separates, d_sep_via_t_sep])
def test_dsep_deciders_range_check_vertices(decider):
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    for A, B, C, v in [({0}, {3}, set(), 0), ({1}, {9}, set(), 9),
                       ({1}, {3}, {7}, 7), ({1}, {3}, {-1, 2}, -1)]:
        with pytest.raises(ValueError, match=rf"vertex {v} out of range \[1,3\]"):
            decider(chain, A, B, C)
    # the DAG check comes first, the disjointness check last
    with pytest.raises(NotADAGError):
        decider(make_graph(2, undirected=[(1, 2)]), {1}, {9}, set())
    with pytest.raises(ValueError, match="vertex 9 out of range"):
        decider(chain, {1}, {1}, {9})


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


def _sample(rng, n, low, high):
    return set(rng.sample(range(1, n + 1), rng.randint(low, min(high, n))))


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_ci_implied_matches_rank_test(cls):
    # ci_implied pushes the |C| trivial treks and searches once; the rank
    # test runs the full min-cut on (A+C, B+C)
    rng = random.Random(f"ci-guard/{cls}")
    seen = Counter()
    for _ in range(400):
        n = rng.randint(2, 12)
        g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        A, B, C = _sample(rng, n, 0, 3), _sample(rng, n, 1, 3), _sample(rng, n, 0, 4)
        verdict = ci_implied(g, A, B, C)
        assert verdict == (generic_rank(g, A | C, B | C) == len(C)), (A, B, C)
        seen[verdict] += 1
        seen["A&B"] += bool(A & B)
        seen["A&C"] += bool(A & C)
        seen["no C"] += not C
    assert min(seen.values()) >= 20, seen


def test_ci_implied_edge_cases():
    g = choke_graph()
    assert ci_implied(g, set(), {1}, set())
    with pytest.raises(ValueError, match="out of range"):
        ci_implied(g, {1}, {6}, set())
    with pytest.raises(ValueError, match="out of range"):
        ci_implied(g, {1}, {5}, {0})


def _answer(entry, g, *sides):
    try:
        return entry(g, *sides)
    except ValueError as exc:
        return f"ValueError: {exc}"


ENTRY_POINTS = {  # name: (entry, DAGs only, number of vertex sets)
    "generic_rank": (generic_rank, False, 2),
    "generic_rank_oracle": (lambda g, A, B: generic_rank_oracle(g, A, B, 7), False, 2),
    "ci_implied": (ci_implied, False, 3),
    "d_separates": (d_separates, True, 3),
    "d_sep_via_t_sep": (d_sep_via_t_sep, True, 3),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_read_each_vertex_argument_once(name):
    # A one-shot iterator must give the answer of the set it yields.
    entry, dag_only, sides = ENTRY_POINTS[name]
    cases = [(choke_graph(), [1, 3], [4, 5], []), (choke_graph(), [1], [5], []),
             (choke_graph(), [], [4], [])]
    rng = random.Random(f"iterators/{name}")
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(DAG if dag_only else rng.choice((DAG, UNDIRECTED, MIXED)),
                         n, rng.getrandbits(32), 0.5)
        vertices = rng.sample(range(1, n + 1), n)
        cut = sorted(rng.sample(range(n + 1), 2))
        cases.append((g, vertices[:cut[0]], vertices[cut[0]:cut[1]], vertices[cut[1]:]))
    for g, A, B, C in cases:
        sets = (A, B, C)[:sides]
        assert _answer(entry, g, *map(iter, sets)) == _answer(entry, g, *map(set, sets)), \
            (name, g, sets)


def test_criterion_8_deciders_are_independent(monkeypatch):
    # none of d_separates, d_sep_via_t_sep and ci_implied calls another, and
    # ci_implied runs one residual search and no min-cut
    deciders = {"d_separates": d_separates, "d_sep_via_t_sep": d_sep_via_t_sep,
                "ci_implied": ci_implied}
    searches = []
    real_search = separation._search

    def counted_search(*args):
        searches.append(args)
        return real_search(*args)

    def forbidden(*args):
        raise AssertionError("a decider called another decider or a min-cut")

    for name in (*deciders, "min_t_separator", "generic_rank"):
        monkeypatch.setattr(separation, name, forbidden)
    monkeypatch.setattr(separation, "_search", counted_search)
    rng = random.Random("independence")
    for _ in range(100):
        n = rng.randint(3, 8)
        g = random_graph(DAG, n, rng.randrange(10**6), 0.4)
        vs = rng.sample(range(1, n + 1), n)
        A, B, C = {vs[0]}, {vs[1]}, set(vs[2:2 + rng.randint(0, 3)])
        assert deciders["d_separates"](g, A, B, C) \
            == deciders["d_sep_via_t_sep"](g, A, B, C)
        assert not searches
        deciders["ci_implied"](g, A, B, C)
        assert len(searches) == 1
        searches.clear()


# The set-based deciders that the mask-based ones replaced, kept as
# references; they read parent and child sets built from the directed edges,
# not the graph's own index.

def _relatives(g):
    """(parents, children): vertex -> set, from the directed edges of g."""
    parents = {v: set() for v in g.vertices}
    children = {v: set() for v in g.vertices}
    for i, j in g.directed_edges:
        parents[j].add(i)
        children[i].add(j)
    return parents, children


def _ancestors_reference(g, vertices) -> set:
    """The vertices and every vertex with a directed path into one of them."""
    parents = _relatives(g)[0]
    seen = set(vertices)
    stack = list(seen)
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def d_separates_reference(g, A, B, C) -> bool:
    _require_dsep_query(g, A, B, C)
    parents, children = _relatives(g)
    C = set(C)
    anc_c = set()
    stack = list(C)
    while stack:
        v = stack.pop()
        if v in anc_c:
            continue
        anc_c.add(v)
        stack.extend(parents[v])

    reachable = set()
    visited = set()
    frontier = [(a, "up") for a in A]
    while frontier:
        v, direction = frontier.pop()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if direction == "up" and v not in C:
            reachable.add(v)
            frontier.extend((p, "up") for p in parents[v])
            frontier.extend((c, "down") for c in children[v])
        elif direction == "down":
            if v not in C:
                reachable.add(v)
                frontier.extend((c, "down") for c in children[v])
            if v in anc_c:
                frontier.extend((p, "up") for p in parents[v])
    return reachable.isdisjoint(B)


def _dag_pair_t_separates_reference(g, A, B, c_a, c_b) -> bool:
    parents = _relatives(g)[0]

    def sided_sources(targets, blockers):
        grown = {t for t in targets if t not in blockers}
        stack = list(grown)
        while stack:
            v = stack.pop()
            for p in parents[v]:
                if p not in blockers and p not in grown:
                    grown.add(p)
                    stack.append(p)
        return grown

    left = sided_sources(set(A), set(c_a))
    right = sided_sources(set(B), set(c_b))
    return left.isdisjoint(right)


def d_sep_via_t_sep_reference(g, A, B, C) -> bool:
    _require_dsep_query(g, A, B, C)
    C = sorted(set(C))
    if len(C) > 20:
        raise CapExceededError(
            20, f"partition search over {len(C)} conditioning vertices "
                "exceeds the cap of 20")
    AC = set(A) | set(C)
    BC = set(B) | set(C)
    for mask in range(1 << len(C)):
        c_a = {C[i] for i in range(len(C)) if mask >> i & 1}
        c_b = set(C) - c_a
        if _dag_pair_t_separates_reference(g, AC, BC, c_a, c_b):
            return True
    return False


def test_dsep_deciders_match_set_based_references():
    # beyond the reach of criterion 8: n 7..14 and |C| up to 6
    rng = random.Random("dsep-reference")
    verdicts = Counter()
    for _ in range(600):
        n = rng.randint(7, 14)
        g = random_graph(DAG, n, rng.randrange(10**6), rng.choice((0.15, 0.3, 0.5)))
        vs = rng.sample(range(1, n + 1), n)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        c = rng.randint(0, min(6, n - a - b))
        A, B, C = set(vs[:a]), set(vs[a:a + b]), set(vs[a + b:a + b + c])
        d = d_separates(g, A, B, C)
        assert d == d_separates_reference(g, A, B, C), (A, B, C)
        assert d_sep_via_t_sep(g, A, B, C) == d_sep_via_t_sep_reference(g, A, B, C), (A, B, C)
        verdicts[d, len(C) >= 4] += 1
    assert len(verdicts) == 4 and min(verdicts.values()) >= 20, verdicts


def _shared_pair_triples(rng, n):
    """12 (A, C) pairs on n vertices, |C| <= 5, each with 3 draws of B."""
    triples = []
    for _ in range(12):
        vs = rng.sample(range(1, n + 1), n)
        a = rng.randint(1, min(2, n - 1))
        A, rest = frozenset(vs[:a]), vs[a:]
        C = frozenset(rng.sample(rest, rng.randint(0, min(5, len(rest) - 1))))
        rest = [v for v in rest if v not in C]
        for _ in range(3):
            B = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
            triples.append((A, B, C))
    return triples


def test_shared_dsep_verdicts_match_public_and_reference_deciders():
    # criterion 8 computes the (A, C) parts once per pair of each graph and
    # shares them among its Bs; the same pairs recur across these graphs, so
    # parts kept from one graph to the next would give some triple the
    # verdicts of another graph.  The public deciders run on this test's own
    # triples, with |C| up to 5.
    rng = random.Random("shared-dsep")
    verdicts = Counter()
    decided = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(DAG, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.6)))
        if n <= 6:  # criterion 8's own sizes; its triple count grows as n^7
            for A, B, C, d, t, ci in _dsep_verdicts(g):
                assert (d, t, ci) == (d_separates_reference(g, A, B, C),) * 3, (g, A, B, C)
                decided += 1
        for A, B, C in _shared_pair_triples(rng, n):
            expected = d_separates_reference(g, A, B, C)
            assert d_separates(g, A, B, C) == d_sep_via_t_sep(g, A, B, C) \
                == ci_implied(g, A, B, C) == d_sep_via_t_sep_reference(g, A, B, C) \
                == ci_implied_reference(g, A, B, C) == expected, (g, A, B, C)
            verdicts[expected, len(C) >= 4] += 1
    assert decided > 20_000, decided
    assert sum(verdicts.values()) == 60 * 36
    assert len(verdicts) == 4 and min(verdicts.values()) >= 20, verdicts


def test_dsep_pairs_of_two_vertex_a_are_the_or_of_their_vertices_parts():
    # criterion 8 runs its deciders on one-vertex A only and gives A = {a1,
    # a2} the OR of the two vertices' parts: they must equal the parts the
    # deciders give when seeded with both vertices at once
    pairs = 0
    for n, density, seed in product(range(2, 9), (0.2, 0.4, 0.7), range(4)):
        g = random_graph(DAG, n, seed, density)
        arcs = {}
        for A, C, _, reach, masks, ci_reach in _dsep_pairs(g):
            if len(A) == 1:
                continue
            a, c = separation._mask(A), separation._mask(C)
            assert reach == separation._bayes_ball(g, a, c), (g, A, C)
            reaches = separation._partition_reaches(
                g, a, c, lambda table: partial(separation._closed_up, table))
            assert masks == separation._partition_masks(reaches), (g, A, C)
            assert ci_reach == separation._ci_reached(arcs, g, A + C, C), (g, A, C)
            pairs += 1
    # sum over n of C(n, 2) times the Cs of at most 3 vertices that leave one
    assert pairs == 12 * (0 + 3 + 18 + 70 + 225 + 546 + 1176)


def _bayes_ball_from_lowest_vertex(g, a, c_set, real=separation._bayes_ball):
    """`separation._bayes_ball` seeded with the lowest vertex of A only."""
    return real(g, a & -a, c_set)


def test_dsep_equivalence_cannot_see_a_bayes_ball_seeded_with_one_vertex(monkeypatch):
    # criterion 8 never seeds a decider with two vertices, so this mutant
    # passes it; the public deciders' tests on |A| >= 2 fail it
    monkeypatch.setattr(separation, "_bayes_ball", _bayes_ball_from_lowest_vertex)
    result = criterion_dsep_equivalence(SuiteConfig())
    assert (result.passes, result.failures) == (200, [])
    with pytest.raises(AssertionError):
        test_dsep_deciders_match_set_based_references()
    with pytest.raises(AssertionError):
        test_shared_dsep_verdicts_match_public_and_reference_deciders()


def test_vanishing_tetrad_choke():
    assert vanishing_tetrad(choke_graph(), (1, 3), (4, 5)) == SeparationTriple.of(cr={4})


def test_vanishing_tetrad_spider_blocks():
    # {1,2} and {4,5} all hang off the hub: rank 1, the hub's left state
    assert vanishing_tetrad(spider_graph(), (1, 2), (4, 5)) == SeparationTriple.of(cl={7})
    # {1,3} vs {4,6} straddles the hub on both sides: rank 2, no certificate
    assert vanishing_tetrad(spider_graph(), (1, 3), (4, 6)) is None


def test_vanishing_tetrad_overlapping_pairs():
    chain = make_graph(3, directed=[(1, 2), (2, 3)])
    assert vanishing_tetrad(chain, (1, 2), (2, 3)) == SeparationTriple.of(cr={2})
    # collider: sigma_12 = 0 but the off-diagonal entries keep rank 2
    collider = make_graph(3, directed=[(1, 3), (2, 3)])
    assert vanishing_tetrad(collider, (1, 3), (2, 3)) is None


def test_vanishing_tetrad_on_every_graph_class():
    # no trek from {1,2} to {3,4}: rank 0, the empty triple
    assert vanishing_tetrad(make_graph(4, directed=[(1, 2)]), (1, 2), (3, 4)) \
        == SeparationTriple()
    # a path 1 - 2 - 3 - 4: rank 1, cut at a middle level
    path = make_graph(4, undirected=[(1, 2), (2, 3), (3, 4)])
    assert vanishing_tetrad(path, (1, 2), (3, 4)) == SeparationTriple.of(cm={2})
    # 1 -> 3 <-> 4 <- 2: only 3 and 4 are joined by a trek, over the bidirected edge
    mixed = make_graph(4, directed=[(1, 3), (2, 4)], bidirected=[(3, 4)], u=())
    assert vanishing_tetrad(mixed, (1, 3), (2, 4)) == SeparationTriple.of(cl={3})


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_vanishing_tetrad_is_none_iff_the_oracle_gives_rank_two(cls):
    rng = random.Random(f"tetrad/{cls}")
    sizes = Counter()
    for _ in range(300):
        n = rng.randint(4, 8)
        g = random_graph(cls, n, rng.getrandbits(32), 0.3)
        ij, kl = rng.sample(range(1, n + 1), 2), rng.sample(range(1, n + 1), 2)
        got = vanishing_tetrad(g, ij, kl)
        assert (got is None) == (generic_rank_oracle(g, ij, kl, rng.getrandbits(32)) == 2), \
            (g, ij, kl, got)
        if got is not None:
            assert got.size() <= 1 and is_t_separating(g, ij, kl, got), (g, ij, kl, got)
        sizes["none" if got is None else got.size()] += 1
    assert min(sizes[k] for k in ("none", 0, 1)) >= 10, sizes  # every answer occurs


@pytest.mark.parametrize("ij, kl", [((1, 1), (4, 5)), ((1, 2, 3), (4, 5)), ((1,), (4, 5)),
                                    ((1, 3), (5, 5)), ((1, 3), (2, 4, 5)), ((1, 3), ())])
def test_vanishing_tetrad_needs_two_distinct_rows_and_columns(ij, kl):
    with pytest.raises(ValueError, match="^a tetrad needs two distinct rows and two "
                                         "distinct columns$"):
        vanishing_tetrad(choke_graph(), ij, kl)


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
