import pytest

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
    with pytest.raises(ValueError):
        SuiteConfig(edge_density=0)
    with pytest.raises(ValueError, match="trials_per_instance must be at least 1"):
        SuiteConfig(trials_per_instance=0)
    for n in (2, 3):  # criterion 7 needs two W vertices for its bidirected edge
        with pytest.raises(ValueError, match="^max_vertices must be at least 4$"):
            SuiteConfig(max_vertices=n)


def test_cross_check_rank_canonical():
    detail = cross_check_rank(choke_graph(), CHOKE_A, CHOKE_B, 1)
    assert detail["ok"] and detail["rank"] == detail["oracle_rank"] == 1
    assert detail["menger_ok"] and detail["trek_system_ok"]
    detail = cross_check_rank(spider_graph(), SPIDER_A, SPIDER_B, 1)
    assert detail["ok"] and detail["rank"] == 2


def test_cross_check_rank_empty_side():
    detail = cross_check_rank(choke_graph(), set(), CHOKE_B, 1)
    assert detail["ok"] and detail["rank"] == 0


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


def test_dsep_equivalence_searches_once_per_a_c_pair(monkeypatch):
    # the three deciders' (A, C) parts are shared by every B: one CI search
    # per distinct (A, C) pair of each graph, and no public decider or
    # min-cut runs
    def forbidden(*args):
        raise AssertionError("criterion 8 called a public decider or a min-cut")

    for name in ("d_separates", "d_sep_via_t_sep", "ci_implied",
                 "min_t_separator", "generic_rank"):
        monkeypatch.setattr(separation, name, forbidden)
    searched = []  # the graph of each search, read from the adjacency cache
    real_search = separation._search

    def counted_search(*args):
        searched.append(separation._last[0])
        return real_search(*args)

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
    pairs = [len({(A, C) for A, _, C in verify._disjoint_triples(g.m)}) for g in graphs]
    assert [count for _, count in per_graph] == pairs
    assert sum(pairs) < sum(1 for g in graphs for _ in verify._disjoint_triples(g.m))


def _per_triple_first_failure(cfg):
    """The record of criterion 8's first failing triple when every triple
    calls the three public deciders: the record the shared parts must give."""
    for g in _dsep_graphs(cfg):
        for A, B, C in verify._disjoint_triples(g.m):
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
    flip_at = sum(1 for _ in verify._disjoint_triples(graphs[0].m)) + 6
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
