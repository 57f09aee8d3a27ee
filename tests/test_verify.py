import inspect
from itertools import combinations, product

import pytest
from test_separation import _recorded_arcs

from treksep import separation, verify
from treksep.graph import (DAG, MIXED, UNDIRECTED, graph_class, parse_graph,
                           serialize, validate)
from treksep.instances import (CHOKE_A, CHOKE_B, SPIDER_A, SPIDER_B,
                               choke_graph, spider_graph)
from treksep.verify import (SuiteConfig, cross_check_rank, random_graph,
                            run_suite)


def test_random_graph_deterministic():
    for cls in (DAG, UNDIRECTED, MIXED):
        assert random_graph(cls, 5, 99, 0.4) == random_graph(cls, 5, 99, 0.4)


def test_random_graph_density_one_complete_dag():
    g = random_graph(DAG, 3, 0, 1.0)
    assert g.directed_edges == {(1, 2), (1, 3), (2, 3)}


def test_random_graph_single_vertex():
    g = random_graph(DAG, 1, 0, 0.5)
    assert g.m == 1 and not g.directed_edges


def test_random_graph_classes():
    assert graph_class(random_graph(DAG, 6, 1, 0.9)) == DAG
    assert graph_class(random_graph(UNDIRECTED, 6, 1, 0.9)) == UNDIRECTED
    for seed in range(20):
        g = random_graph(MIXED, 6, seed, 0.8)
        assert validate(g) == []


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(graph_count=0)
    with pytest.raises(ValueError):
        SuiteConfig(max_vertices=1)
    with pytest.raises(TypeError):  # a constant, not a field
        SuiteConfig(edge_density=0)
    with pytest.raises(ValueError, match="trials_per_instance must be at least 1"):
        SuiteConfig(trials_per_instance=0)
    for n in (2, 3):  # criterion 7 needs two W vertices for its bidirected edge
        with pytest.raises(ValueError, match="^max_vertices must be at least 4$"):
            SuiteConfig(max_vertices=n)


def test_cross_check_rank_canonical():
    detail = cross_check_rank(choke_graph(), CHOKE_A, CHOKE_B, 1)
    assert detail["ok"] and detail["rank"] == detail["oracle_rank"] == 1
    assert detail["menger_ok"]
    detail = cross_check_rank(spider_graph(), SPIDER_A, SPIDER_B, 1)
    assert detail["ok"] and detail["rank"] == 2


def test_menger_duality_fails_on_a_network_that_climbs_to_the_right_level(monkeypatch):
    # a wrong arc entry: a left out-node lists each parent's right in-node
    # (6p - 2) where the parent's left in-node (6p - 6) belongs.  The flow
    # still yields a separating triple of the flow's size, so only the
    # witness check sees the step from (v, left) to (p, right).
    original = separation._Arcs.__missing__

    def climbs_to_the_right(self, k):
        arcs = original(self, k)
        if k % 3 == 0:  # a left out-node: its left in-nodes are those 0 mod 6
            self[k] = arcs = tuple(x + 4 if x % 6 == 0 else x for x in arcs)
        return arcs

    monkeypatch.setattr(separation._Arcs, "__missing__", climbs_to_the_right)
    result = verify.criterion_menger(SuiteConfig())
    assert result.failures and result.passes  # 145 of 600 fail when written


@pytest.mark.parametrize("name, edges, cls, tag", [
    ("_undirected_lists", "undirected_edges", UNDIRECTED, "rank_undirected"),
    ("_bidirected_lists", "bidirected_edges", MIXED, "rank_mixed")])
def test_menger_duality_fails_on_an_index_that_lists_each_edge_one_way(name, edges, cls, tag):
    # a wrong adjacency index: each undirected (bidirected) edge i, j, i < j,
    # is listed from i alone.  The flow misses the treks that step from j to
    # i, and its triple, which separates in that index, does not separate in
    # the graph: only a check that reads the edge sets sees it
    rejected = 0
    for g, A, B, _ in verify._rank_queries(SuiteConfig(), cls, tag):
        one_way = [()] * (g.m + 1)
        for i, j in getattr(g, edges):
            one_way[i] += (j,)
        object.__setattr__(g, name, one_way)
        rejected += not verify._menger_ok(g, A, B, separation.min_t_separator(g, A, B))
    assert rejected  # 56 (undirected) and 5 (bidirected) of 200 when written


def test_cross_check_rank_empty_side():
    detail = cross_check_rank(choke_graph(), set(), CHOKE_B, 1)
    assert detail["ok"] and detail["rank"] == 0


@pytest.mark.parametrize("A, B, rank", [((1, 3), (4, 5), 1), ((), (4, 5), 0)])
def test_cross_check_rank_reads_each_side_once(A, B, rank):
    # the min-cut, the oracle, the detail dict and the Menger check all read
    # A and B: a one-shot iterator must give the same answer as a list or a set
    details = [cross_check_rank(choke_graph(), kind(A), kind(B), 1)
               for kind in (list, set, iter)]
    assert details[0] == details[1] == details[2]
    assert details[0]["ok"] and details[0]["rank"] == rank


def test_cross_check_rank_trials_default_is_the_suite_default():
    trials = inspect.signature(cross_check_rank).parameters["trials"].default
    assert trials == SuiteConfig().trials_per_instance


def test_canonical_tetrad_failure_record_prints_the_triple(monkeypatch):
    # a wrong certificate fails the record, which prints it as `rank
    # --output json` prints a certificate
    monkeypatch.setattr(separation, "vanishing_tetrad",
                        lambda g, ij, kl: separation.SeparationTriple.of(cm={4}))
    result = verify.criterion_canonical(SuiteConfig())
    assert result.passes == 2
    assert [(f["check"], f["certificate"]) for f in result.failures] == [
        ("canonical_choke_tetrad", {"cl": [], "cm": [4], "cr": []})]


def test_run_suite_small_deterministic():
    cfg = SuiteConfig(seed=2, graph_count=4, max_vertices=4)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert r1.to_dict() == r2.to_dict()
    assert r1.total_failures == 0
    assert set(r1.checks) == {
        "trek_rule_identity", "gvl_identity", "cauchy_binet",
        "rank_directed", "rank_undirected", "rank_mixed",
        "subdivision_invariance", "dsep_equivalence", "canonical_instances",
        "menger_duality",
    }


def test_failures_carry_reproduction():
    # sanity-check the failure plumbing itself via a deliberately wrong record
    from treksep.verify import CheckResult
    res = CheckResult("probe")
    res.record(False, choke_graph(), {"check": "probe", "A": [1]})
    assert not res.ok
    assert "v 5" in res.failures[0]["graph"]


DSEP_CFG = SuiteConfig(seed=7, graph_count=6)


def _dsep_graphs(cfg):
    return [g for g, _ in verify._graph_stream(DAG, cfg, cfg.graph_count, "dsep")]


def _triples(n):
    """Every disjoint triple (A, B, C) on vertices 1..n with |A|, |B| <= 2 and
    |C| <= 3, by brute force, in criterion 8's order: by A, then C, then B,
    each by size and then lexicographically."""
    subsets = [frozenset(s) for k in range(4) for s in combinations(range(1, n + 1), k)]
    triples = [(A, B, C) for A, B, C in product(subsets, repeat=3)
               if 1 <= len(A) <= 2 and 1 <= len(B) <= 2
               and not (A & B or A & C or B & C)]
    return sorted(triples, key=lambda t: [(len(s), sorted(s)) for s in (t[0], t[2], t[1])])


@pytest.mark.parametrize("n", range(2, 8))
def test_dsep_equivalence_decides_every_disjoint_triple_once(n):
    # the triples criterion 8 decides are exactly the brute-force ones, each
    # once and in the order the per-triple replay below assumes
    g = random_graph(DAG, n, n, 0.4)
    decided = [(frozenset(A), frozenset(B), frozenset(C))
               for A, B, C, *_ in verify._dsep_verdicts(g)]
    assert decided == _triples(n)  # which lists each triple once


def test_dsep_equivalence_searches_once_per_a_c_pair(monkeypatch):
    # the three deciders' (A, C) parts are shared by every B: one CI search
    # per distinct (A, C) pair of each graph, and no public decider or
    # min-cut runs
    def forbidden(*args):
        raise AssertionError("criterion 8 called a public decider or a min-cut")

    for name in ("d_separates", "d_sep_via_t_sep", "ci_implied",
                 "min_t_separator", "generic_rank"):
        monkeypatch.setattr(separation, name, forbidden)
    made = _recorded_arcs(monkeypatch)
    searched = []  # the graph of each search, read from the arcs it searches
    real_search = separation._search

    def counted_search(arcs, *rest):
        searched.append(arcs.graph)
        return real_search(arcs, *rest)

    monkeypatch.setattr(separation, "_search", counted_search)
    result = verify.criterion_dsep_equivalence(DSEP_CFG)
    assert result.ok and result.passes == DSEP_CFG.graph_count
    per_graph = []
    for g in searched:
        if not per_graph or per_graph[-1][0] is not g:
            per_graph.append([g, 0])
        per_graph[-1][1] += 1
    graphs = _dsep_graphs(DSEP_CFG)
    assert [g for g, _ in per_graph] == graphs
    assert [id(arcs.graph) for arcs in made] == [id(g) for g, _ in per_graph]  # one set per graph
    pairs = [len({(A, C) for A, _, C in _triples(g.m)}) for g in graphs]  # each with a B
    assert [count for _, count in per_graph] == pairs
    assert sum(pairs) < sum(len(_triples(g.m)) for g in graphs)


def _per_triple_first_failure(cfg):
    """The record of criterion 8's first failing triple when every triple
    calls the three public deciders: the record the shared parts must give."""
    for g in _dsep_graphs(cfg):
        for A, B, C in _triples(g.m):
            d = separation.d_separates(g, A, B, C)
            t = separation.d_sep_via_t_sep(g, A, B, C)
            ci = separation.ci_implied(g, A, B, C)
            if not d == t == ci:
                return {"check": "dsep_equivalence", "A": sorted(A), "B": sorted(B),
                        "C": sorted(C), "d_separates": d, "via_t_sep": t,
                        "ci_implied": ci, "graph": serialize(g)}
    return None


def test_dsep_equivalence_failure_record_replays(monkeypatch):
    # flip the partition search's per-B test on one triple, the sixth of the
    # second graph: both the criterion and a per-triple loop over the public
    # deciders make one such test per triple, in the same order
    graphs = _dsep_graphs(DSEP_CFG)
    flip_at = len(_triples(graphs[0].m)) + 6
    real = separation._some_partition_separates
    calls = []

    def flipped(*args):
        calls.append(None)
        return real(*args) != (len(calls) == flip_at)

    monkeypatch.setattr(separation, "_some_partition_separates", flipped)
    result = verify.criterion_dsep_equivalence(DSEP_CFG)
    assert len(calls) > flip_at
    calls.clear()
    expected = _per_triple_first_failure(DSEP_CFG)
    assert expected is not None and expected["graph"] == serialize(graphs[1])
    assert result.failures == [expected]
    assert result.passes == DSEP_CFG.graph_count - 1
    monkeypatch.undo()
    g = parse_graph(expected["graph"])
    A, B, C = (set(expected[k]) for k in "ABC")
    assert separation.d_separates(g, A, B, C) == expected["d_separates"]
    assert separation.ci_implied(g, A, B, C) == expected["ci_implied"]
    assert separation.d_sep_via_t_sep(g, A, B, C) == (not expected["via_t_sep"])
