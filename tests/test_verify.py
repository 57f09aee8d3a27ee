import hashlib
import inspect
import json
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st
from test_separation import _dsep_verdicts, _recorded_arcs

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
    for n in (17, 10**9):  # criterion 8 costs about n^7 a graph
        with pytest.raises(ValueError, match="^max_vertices must be at most 16$"):
            SuiteConfig(max_vertices=n)
    assert SuiteConfig(max_vertices=16).max_vertices == 16


def test_suite_config_bounds_the_graphs():
    for count in (verify.MAX_GRAPHS + 1, 10**9):  # each graph costs a few ms
        with pytest.raises(ValueError, match=f"^graph_count must be at most "
                                             f"{verify.MAX_GRAPHS}$"):
            SuiteConfig(graph_count=count)
    assert SuiteConfig(graph_count=verify.MAX_GRAPHS).graph_count == verify.MAX_GRAPHS
    # and graph_count * max_vertices**4: a graph costs about max_vertices**4,
    # a few ms at 6 and under a tenth of a second at 16
    assert [verify.max_graphs(n) for n in (6, 7, 8, 16)] == [100_000, 53_977, 31_640, 1_977]
    for n, count in ((16, 1_978), (16, verify.MAX_GRAPHS), (7, 53_978), (8, 10**5)):
        with pytest.raises(ValueError, match=f"^graph_count at max_vertices {n} must be "
                                             f"at most {verify.max_graphs(n)}$"):
            SuiteConfig(max_vertices=n, graph_count=count)
    for n, count in ((16, 1_977), (16, 200), (8, 20), (4, verify.MAX_GRAPHS),
                     (5, verify.MAX_GRAPHS), (6, verify.MAX_GRAPHS)):
        assert SuiteConfig(max_vertices=n, graph_count=count).graph_count == count


def test_suite_config_bounds_the_trials():
    for trials in (verify.MAX_TRIALS + 1, 10**9):  # more trials buy nothing
        with pytest.raises(ValueError, match=f"^trials_per_instance must be at most "
                                             f"{verify.MAX_TRIALS}$"):
            SuiteConfig(trials_per_instance=trials)
    assert SuiteConfig(trials_per_instance=verify.MAX_TRIALS).trials_per_instance \
        == verify.MAX_TRIALS


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
    real = separation._search

    def climbs_to_the_right(arcs, g, *rest):
        if not arcs:  # a query's first search: list every entry, then the wrong ones
            real(arcs, g, [-1] * (3 * g.m), [-1] * (6 * g.m), g.vertices, (), 0)
            for k in range(0, 3 * g.m, 3):  # a left out-node: its left in-nodes are 0 mod 6
                arcs[k] = tuple(x + 4 if x % 6 == 0 else x for x in arcs[k])
        return real(arcs, g, *rest)

    monkeypatch.setattr(separation, "_search", climbs_to_the_right)
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
               for A, B, C, *_ in _dsep_verdicts(g)]
    assert decided == _triples(n)  # which lists each triple once


def test_dsep_equivalence_searches_once_per_a_c_pair(monkeypatch):
    # the three deciders' (A, C) parts are shared by every B, and a
    # two-vertex A ORs its vertices' parts: one CI search per distinct
    # one-vertex-A pair (a, C) of each graph that leaves a vertex for B,
    # and no public decider or min-cut runs
    def forbidden(*args):
        raise AssertionError("criterion 8 called a public decider or a min-cut")

    for name in ("d_separates", "d_sep_via_t_sep", "ci_implied",
                 "min_t_separator", "generic_rank"):
        monkeypatch.setattr(separation, name, forbidden)
    made = _recorded_arcs(monkeypatch)
    searched = []  # the graph of each search
    real_search = separation._search

    def counted_search(arcs, g, *rest):
        searched.append(g)
        return real_search(arcs, g, *rest)

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
    assert [id(graph) for graph, _ in made] == [id(g) for g, _ in per_graph]  # one set per graph
    pairs = [len({(A, C) for A, _, C in _triples(g.m) if len(A) == 1})  # each with a B
             for g in graphs]
    assert [count for _, count in per_graph] == pairs
    assert pairs[1] == 75  # of its 145 (A, C) pairs with a B
    assert sum(pairs) < sum(len({(A, C) for A, _, C in _triples(g.m)}) for g in graphs)


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
    # drop the partition reaches of one (A, C) pair of the second graph, its
    # first pair with a d-separated B, which has a one-vertex A: no partition
    # of C then separates A + C from B + C.  The criterion and the public
    # `d_sep_via_t_sep` both build their reaches by `_partition_reaches`, so
    # the per-triple replay over the public deciders sees the same fault
    graphs = _dsep_graphs(DSEP_CFG)
    A0, C0 = next((list(A), list(C)) for A, _, C, d, *_ in _dsep_verdicts(graphs[1])
                  if d)
    assert len(A0) == 1  # criterion 8 runs the partition search on it
    key = separation._mask(A0), separation._mask(C0), graphs[1]
    real = separation._partition_reaches
    hits = []

    def faulty(g, a, c, closed):
        reaches = real(g, a, c, closed)
        if (a, c, g) == key:
            hits.append(None)
            return []
        return reaches

    monkeypatch.setattr(separation, "_partition_reaches", faulty)
    result = verify.criterion_dsep_equivalence(DSEP_CFG)
    assert hits
    expected = _per_triple_first_failure(DSEP_CFG)
    assert expected is not None and expected["graph"] == serialize(graphs[1])
    assert (expected["A"], expected["C"]) == (A0, C0)
    assert result.failures == [expected]
    assert result.passes == DSEP_CFG.graph_count - 1
    monkeypatch.undo()
    g = parse_graph(expected["graph"])
    A, B, C = (set(expected[k]) for k in "ABC")
    assert separation.d_separates(g, A, B, C) == expected["d_separates"]
    assert separation.ci_implied(g, A, B, C) == expected["ci_implied"]
    assert separation.d_sep_via_t_sep(g, A, B, C) == (not expected["via_t_sep"])


def _per_b_agrees(rest, reach, masks, ci_reach):
    """d == t == ci for every B of the mask rest with |B| in {1, 2}, by the
    per-B tests of `verify._pair_verdicts`."""
    return all(d == t == ci for _, d, t, ci in
               verify._pair_verdicts(rest, reach, masks, ci_reach))


_six_bits = st.integers(0, 63)


# rest empty; the (a), (b) and (c) cases of one vertex, each a disagreement
# that the test would pass without its own condition; and an agreeing pair
# that the test cannot decide: no kept mask misses all three unvisited
# vertices, but every pair of them misses one
@example(rest=0, reach=0b101, masks=[], ci_reach=0b11)
@example(rest=0, reach=0, masks=[0], ci_reach=0)
@example(rest=0b1, reach=0, masks=[0], ci_reach=0b1)
@example(rest=0b1, reach=0b1, masks=[0], ci_reach=0b1)
@example(rest=0b1, reach=0, masks=[0b1], ci_reach=0)
@example(rest=0b111, reach=0, masks=[0b1, 0b10, 0b100], ci_reach=0)
@settings(max_examples=1000, deadline=None)
@given(rest=_six_bits, reach=_six_bits, masks=st.lists(_six_bits, max_size=4),
       ci_reach=_six_bits)
def test_pair_agrees_passes_only_pairs_whose_every_b_agrees(rest, reach, masks, ci_reach):
    # the (A, C) test of criterion 8 is sufficient: a pair it passes has
    # d == t == ci for every B of rest; a pair it fails runs the per-B tests
    if verify._pair_agrees(rest, reach, masks, ci_reach):
        assert _per_b_agrees(rest, reach, masks, ci_reach)


def test_pair_agrees_decides_every_real_pair_of_the_default_suite():
    # on the suite's own graphs the test never falls back to the per-B tests
    cfg = SuiteConfig()
    pairs = fallbacks = 0
    for g in _dsep_graphs(cfg):
        for A, C, rest, reach, masks, ci_reach in verify._dsep_pairs(g):
            pairs += 1
            fallbacks += not verify._pair_agrees(rest, reach, masks, ci_reach)
    assert (pairs, fallbacks) == (23_517, 0)


def _bayes_ball_with_no_bounce(g, a, c_set):
    """`separation._bayes_ball` with its bounce at C dropped: a ball coming
    down into a vertex of C no longer climbs to its parents."""
    pmask, cmask = g.parent_mask, g.child_mask
    up = new_up = a
    down = new_down = 0
    while new_up or new_down:
        next_up = separation._spread(pmask, new_up & ~c_set)
        next_down = separation._spread(cmask, (new_up | new_down) & ~c_set)
        new_up = next_up & ~up
        new_down = next_down & ~down
        up |= new_up
        down |= new_down
    return up | down


def _per_b_first_failures(cfg):
    """The record of each graph's first disagreement in the per-B view of
    the whole graph, for the graphs of criterion 8 that have one."""
    expected = []
    for g in _dsep_graphs(cfg):
        for A, B, C, d, t, ci in _dsep_verdicts(g):
            if not d == t == ci:
                expected.append({"check": "dsep_equivalence", "A": sorted(A),
                                 "B": sorted(B), "C": sorted(C), "d_separates": d,
                                 "via_t_sep": t, "ci_implied": ci, "graph": serialize(g)})
                break
    return expected


def test_dsep_equivalence_fails_a_bayes_ball_with_no_bounce(monkeypatch):
    # the mutant of `_bayes_ball` that drops the bounce at C: criterion 8
    # fails 81 of the default suite's 200 graphs, each with the record of the
    # per-B view's first disagreement
    monkeypatch.setattr(separation, "_bayes_ball", _bayes_ball_with_no_bounce)
    cfg = SuiteConfig()
    result = verify.criterion_dsep_equivalence(cfg)
    assert (result.passes, len(result.failures)) == (119, 81)
    assert result.failures == _per_b_first_failures(cfg)


def test_dsep_equivalence_falls_back_pair_by_pair(monkeypatch):
    # with `_pair_agrees` failing every pair, each pair runs its own per-B
    # tests: the default suite's 200 graphs still pass, and with the "no
    # bounce" mutant the 81 records are the per-B view's.  Each failing
    # graph's first pair, with C empty, agrees and a later pair disagrees,
    # and the walk builds one set of arcs per graph, failing ones included
    cfg = SuiteConfig()
    graphs = _dsep_graphs(cfg)
    monkeypatch.setattr(verify, "_pair_agrees", lambda *parts: False)
    made = _recorded_arcs(monkeypatch)
    result = verify.criterion_dsep_equivalence(cfg)
    assert (result.passes, result.failures) == (200, [])
    assert [graph for graph, _ in made] == graphs
    made.clear()
    monkeypatch.setattr(separation, "_bayes_ball", _bayes_ball_with_no_bounce)
    result = verify.criterion_dsep_equivalence(cfg)
    assert (result.passes, len(result.failures)) == (119, 81)
    assert all(failure["C"] for failure in result.failures)
    assert [graph for graph, _ in made] == graphs
    assert result.failures == _per_b_first_failures(cfg)


# The answers, pinned: a change that keeps every rank, verdict and draw keeps
# these three digests.  With no failure the suite's report holds only pass
# counts, and criterion 8 draws only DAGs, so the third digest pins the edge
# draw of every class.

def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_suite_report_is_pinned():
    report = run_suite(SuiteConfig())
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == \
        "bc1fa6abe3693c2e3164435fc45c0cf113264e41e4adee97267344ed0b208f53"


def test_criterion_8_verdicts_are_pinned():
    verdicts = [v for g in _dsep_graphs(SuiteConfig()) for v in _dsep_verdicts(g)]
    assert len(verdicts) == 94_596
    assert _sha256(repr(sorted(verdicts))) == \
        "f7f719f1c3684709a31689331d8b8642ebc7b4279f57a42405c9c7ddfbfd0f6b"


def test_random_graphs_are_pinned():
    text = "".join(serialize(random_graph(cls, n, seed, 0.4)) for cls in (DAG, UNDIRECTED, MIXED)
                   for n in range(1, 9) for seed in range(20))
    assert _sha256(text) == "e5dd440dfc2ca63affd8d1af75829eaa7fd810c47391a22fc742610d1852225a"
