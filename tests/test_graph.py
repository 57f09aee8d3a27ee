import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from treksep import graph
from treksep.graph import (DAG, MIXED, UNDIRECTED, InvalidGraphError,
                           MixedGraph, ParseError, ancestors,
                           bidirected_subdivision, graph_class, make_graph,
                           parse_graph, serialize, topological_order, validate)
from treksep.instances import CHOKE_TEXT, choke_graph
from treksep.algebra import generic_rank_oracle
from treksep.separation import (SeparationTriple, ci_implied, d_sep_via_t_sep,
                                d_separates, generic_rank, is_t_separating,
                                min_t_separator, vanishing_tetrad)
from treksep.treks import enumerate_simple_treks
from treksep.verify import random_graph


def test_parse_minimal_dag():
    g = parse_graph("v 2\ne 1 -> 2")
    assert g.m == 2
    assert g.directed_edges == {(1, 2)}
    assert graph_class(g) == DAG


def test_parse_choke_file_matches_builder():
    assert parse_graph(CHOKE_TEXT) == choke_graph()


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\nv 3\n\ne 1 -> 2  # inline\ne 2 -> 3\n")
    assert g.directed_edges == {(1, 2), (2, 3)}


def test_parse_u_w_conflict_via_edges():
    with pytest.raises(InvalidGraphError, match="vertex 1 cannot be in both U and W"):
        parse_graph("v 2\ne 1 -- 2\ne 1 <-> 2")


def test_parse_explicit_memberships():
    g = parse_graph("v 3\nu 1 2\nw 3\ne 1 -- 2\ne 1 -> 3")
    assert g.u_set == {1, 2} and g.w_set == {3}


@pytest.mark.parametrize("text,fragment", [
    ("e 1 -> 2", "first directive must be"),
    ("v 2\nv 2", "duplicate `v`"),
    ("v 0", "must be positive"),
    ("v 2\ne 1 -> 3", "out of range"),
    ("v 2\ne 1 => 2", "unknown edge kind"),
    ("v 2\ne 1 -> 2\ne 1 -> 2", "duplicate directed edge"),
    ("v 2\nq 1", "unknown directive"),
    ("", "missing `v <m>`"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


def test_parse_rejects_vertex_count_above_limit(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graph, "_build", no_build)  # make_graph and parse_graph build here
    with pytest.raises(ParseError, match="exceeds the limit of 1000000") as exc:
        parse_graph(f"v {10**18}\ne 1 -> 2\n")
    assert exc.value.line_no == 1
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_graph(f"v {graph.MAX_VERTICES + 1}\n")
    with pytest.raises(AssertionError, match="a graph was built"):
        parse_graph("v 2\n")  # a valid count does reach the patched builder


@pytest.mark.parametrize("m,message", [
    (0, "vertex count must be positive, got 0"),
    (-1, "vertex count must be positive, got -1"),
    (graph.MAX_VERTICES + 1, "vertex count 1000001 exceeds the limit of 1000000"),
])
def test_make_graph_rejects_vertex_count_out_of_range(m, message):
    with pytest.raises(InvalidGraphError) as exc:
        make_graph(m)
    assert exc.value.violations == [message]
    with pytest.raises(ParseError, match=message):
        parse_graph(f"v {m}\n")


@pytest.mark.parametrize("v", [0, 9])
@pytest.mark.parametrize("block", ["u", "w"])
def test_make_graph_reports_a_declared_block_id_out_of_range(block, v):
    with pytest.raises(InvalidGraphError) as exc:
        make_graph(3, directed=[(1, 2)], **{block: {v}})
    assert exc.value.violations == ["U and W do not partition the vertex set"]


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_graph("v 3\ne 1 -> 2\ne 9 -> 3")
    assert exc.value.line_no == 3


def test_validate_cycle():
    g = MixedGraph(2, frozenset(), frozenset({1, 2}),
                   frozenset({(1, 2), (2, 1)}), frozenset(), frozenset())
    assert any("directed cycle: 1,2" in v for v in validate(g))


def test_validate_cycle_reports_vertices_on_and_below_it():
    g = MixedGraph(5, frozenset(), frozenset(range(1, 6)),
                   frozenset({(5, 1), (1, 2), (2, 3), (3, 2), (3, 4)}),
                   frozenset(), frozenset())
    assert validate(g) == ["directed cycle: 2,3,4"]
    with pytest.raises(InvalidGraphError, match="directed cycle detected"):
        topological_order(g)


def test_validate_direction_rule():
    g = MixedGraph(2, frozenset({2}), frozenset({1}),
                   frozenset({(1, 2)}), frozenset(), frozenset())
    assert any("U->W direction violated" in v for v in validate(g))


def test_validate_choke_clean():
    assert validate(choke_graph()) == []


def test_topological_order_choke():
    assert topological_order(choke_graph()) == [1, 2, 3, 4, 5]


def test_topological_order_edgeless_tie_break():
    assert topological_order(make_graph(3)) == [1, 2, 3]


def test_ancestors_descendants():
    g = choke_graph()
    assert ancestors(g, 5) == {1, 2, 3, 4, 5}
    assert ancestors(g, 1) == {1}
    assert {v for v in g.vertices if 2 in ancestors(g, v)} == {2, 4, 5}  # descendants
    assert ancestors(make_graph(3), 2) == {2}


@pytest.mark.parametrize("v", [0, 6, 99])
def test_ancestors_descendants_reject_out_of_range(v):
    with pytest.raises(ValueError, match=r"vertex \d+ out of range \[1,5\]"):
        ancestors(choke_graph(), v)


_RANGE_CHECKED = {
    "min_t_separator": lambda g, v: min_t_separator(g, {1}, {v}),
    "is_t_separating": lambda g, v: is_t_separating(
        g, {1}, {2}, SeparationTriple.of(cm={v})),
    "ci_implied": lambda g, v: ci_implied(g, {v}, {2}, {3}),
    "ci_implied_empty_side": lambda g, v: ci_implied(g, [], [v], []),
    "generic_rank": lambda g, v: generic_rank(g, {1}, {v}),
    "generic_rank_empty_side": lambda g, v: generic_rank(g, [], [v]),
    "generic_rank_oracle": lambda g, v: generic_rank_oracle(g, {1}, {v}, 1),
    "generic_rank_oracle_empty_side": lambda g, v: generic_rank_oracle(g, [], [v], 1),
    "d_separates": lambda g, v: d_separates(g, {1}, {v}, {3}),
    "d_sep_via_t_sep": lambda g, v: d_sep_via_t_sep(g, {1}, {2}, {v}),
    "enumerate_simple_treks": lambda g, v: enumerate_simple_treks(g, 1, v),
    "vanishing_tetrad": lambda g, v: vanishing_tetrad(g, (1, 2), (3, v)),
    "ancestors": ancestors,
}


@pytest.mark.parametrize("v", [0, 6], ids=["0", "m+1"])
@pytest.mark.parametrize("entry", sorted(_RANGE_CHECKED))
def test_every_entry_point_reports_an_out_of_range_vertex(entry, v):
    with pytest.raises(ValueError) as caught:
        _RANGE_CHECKED[entry](choke_graph(), v)
    assert str(caught.value) == f"vertex {v} out of range [1,5]"


def test_is_t_separating_reports_a_bad_triple_member_before_a_bad_query_vertex():
    with pytest.raises(ValueError, match=r"^vertex 7 out of range \[1,5\]$"):
        is_t_separating(choke_graph(), {0}, {1}, SeparationTriple.of(cr={7}))


def test_subdivision_single_edge():
    g = make_graph(2, bidirected=[(1, 2)])
    g2 = bidirected_subdivision(g)
    assert g2.m == 3
    assert g2.directed_edges == {(3, 1), (3, 2)}
    assert not g2.bidirected_edges


def test_subdivision_mixed_example():
    g = make_graph(4, directed=[(1, 3), (2, 4)], bidirected=[(1, 2)])
    g2 = bidirected_subdivision(g)
    assert g2.m == 5
    assert g2.directed_edges == {(5, 1), (5, 2), (1, 3), (2, 4)}


def test_subdivision_noop_on_dag():
    g = choke_graph()
    assert bidirected_subdivision(g) == g


graph_cases = st.tuples(st.sampled_from([DAG, UNDIRECTED, MIXED]),
                        st.integers(1, 7), st.integers(0, 10**6))


@given(graph_cases)
def test_serialize_round_trip(case):
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    assert parse_graph(serialize(g)) == g


@given(graph_cases)
def test_random_graphs_valid_and_subdivision_valid(case):
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    assert validate(g) == []
    g2 = bidirected_subdivision(g)
    assert validate(g2) == []
    assert not g2.bidirected_edges
    assert g2.m == g.m + len(g.bidirected_edges)


@given(graph_cases)
def test_topological_order_respects_edges(case):
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    order = topological_order(g)
    assert sorted(order) == list(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[i] < pos[j] for i, j in g.directed_edges)


def _relabelled_text(g, rng):
    """The file text of g with its ids permuted at random."""
    ids = list(g.vertices)
    rng.shuffle(ids)
    new = dict(zip(g.vertices, ids))
    lines = [f"v {g.m}", "u " + " ".join(str(new[v]) for v in g.u_set)] if g.u_set else [f"v {g.m}"]
    for op, edges in (("->", g.directed_edges), ("--", g.undirected_edges),
                      ("<->", g.bidirected_edges)):
        lines += [f"e {new[i]} {op} {new[j]}" for i, j in edges]
    return "\n".join(lines) + "\n"


def test_directed_index_lists_the_directed_edges(monkeypatch):
    # the parent and child lists separation reads hold exactly the directed
    # edges; a built graph keeps the lists made while building it, so the
    # parent lists are made once, and any other graph lists them on first read
    listed = []

    def counted(directed):
        listed.append(directed)
        return real(directed)

    real = graph._list_parents
    monkeypatch.setattr(graph, "_list_parents", counted)
    rng = random.Random("directed index")
    kinds = Counter()
    for seed in range(60):
        g = random_graph((DAG, UNDIRECTED, MIXED)[seed % 3], 2 + seed % 13, seed, 0.4)
        listed.clear()
        built = [parse_graph(serialize(g)), parse_graph(_relabelled_text(g, rng)),
                 make_graph(g.m, g.directed_edges, g.undirected_edges,
                            g.bidirected_edges, u=g.u_set)]
        assert len(listed) == len(built)
        direct = [bidirected_subdivision(g),
                  MixedGraph(g.m, g.u_set, g.w_set, g.directed_edges, g.undirected_edges,
                             g.bidirected_edges)]
        for h, kept in [(h, True) for h in built] + [(h, False) for h in direct]:
            assert ({"_parent_lists", "_child_lists"} <= vars(h).keys()) == kept
            edges = Counter(h.directed_edges)
            parents, children = h._parent_lists, h._child_lists
            assert Counter((p, v) for v, ps in parents.items() for p in ps) == edges
            assert len(children) == h.m + 1
            assert Counter((v, c) for v, cs in enumerate(children) for c in cs) == edges
            assert set(parents) <= set(h.vertices) and all(parents.values())
            assert not children[0]
            fresh = MixedGraph(h.m, h.u_set, h.w_set, h.directed_edges, h.undirected_edges,
                               h.bidirected_edges)
            assert fresh == h and hash(fresh) == hash(h)
            assert parse_graph(serialize(h)) == h
            kinds["kept" if kept else "on first read"] += 1
        assert built[0] == g and hash(built[0]) == hash(g) and built[2] == g
    assert min(kinds.values()) >= 100, kinds


def test_neighbour_index_lists_the_undirected_and_bidirected_edges():
    # each undirected (bidirected) edge i, j puts j in the undirected
    # (bidirected) list of i and i in that of j, and nothing else is listed;
    # no graph lists them before they are first read, so a parse does not
    # pay for them
    rng = random.Random("neighbour index")
    listed = Counter()
    for seed in range(60):
        g = random_graph((DAG, UNDIRECTED, MIXED)[seed % 3], 2 + seed % 13, seed, 0.4)
        graphs = {"parse": parse_graph(serialize(g)),
                  "relabelled parse": parse_graph(_relabelled_text(g, rng)),
                  "make_graph": make_graph(g.m, g.directed_edges, g.undirected_edges,
                                           g.bidirected_edges, u=g.u_set),
                  "bidirected_subdivision": bidirected_subdivision(g),
                  "MixedGraph": MixedGraph(g.m, g.u_set, g.w_set, g.directed_edges,
                                           g.undirected_edges, g.bidirected_edges)}
        for how, h in graphs.items():
            assert not {"_undirected_lists", "_bidirected_lists"} & vars(h).keys()
            for kind, lists, edges in (("undirected", h._undirected_lists, h.undirected_edges),
                                       ("bidirected", h._bidirected_lists, h.bidirected_edges)):
                assert len(lists) == h.m + 1 and not lists[0]
                assert Counter((v, n) for v, ns in enumerate(lists) for n in ns) \
                    == Counter([*edges, *((j, i) for i, j in edges)]), (how, kind)
                listed[how, kind] += len(edges)
    assert len(listed) == 10 and listed["bidirected_subdivision", "bidirected"] == 0
    assert min(n for key, n in listed.items() if key[1] == "undirected") >= 200, listed
    assert min(n for key, n in listed.items()
               if key[1] == "bidirected" and key[0] != "bidirected_subdivision") >= 30, listed
