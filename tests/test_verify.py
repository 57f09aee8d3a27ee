import pytest

from treksep.graph import DAG, MIXED, UNDIRECTED, graph_class, validate
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
