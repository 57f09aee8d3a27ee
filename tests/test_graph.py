import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from graph_reference import (_closure_reference, _kahn_reference,
                             bidirected_subdivision_reference)
from treksep import graph
from treksep.graph import (DAG, MIXED, UNDIRECTED, InvalidGraphError,
                           MixedGraph, ParseError, _ancestor_walk,
                           bidirected_subdivision, graph_class, make_graph,
                           parse_graph, serialize, topological_order, validate)
from treksep.instances import CHOKE_TEXT, SPIDER_TEXT, choke_graph, spider_graph
from treksep.algebra import (cauchy_binet_two_ways, generic_rank_oracle, gvl_minor_two_ways,
                             sample_parameters, undirected_minor_check)
from treksep.separation import (SeparationTriple, ci_implied, d_sep_via_t_sep,
                                d_separates, generic_rank, is_t_separating,
                                min_t_separator, vanishing_tetrad)
from treksep.treks import enumerate_simple_treks
from treksep.verify import cross_check_rank, random_graph


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


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_a_line_ends_only_where_the_file_breaks_it(char):
    # str.splitlines() ends a line at each of these too: a comment's tail
    # would parse as a line, and each later line number would be one too high
    assert parse_graph(f"v 3\ne 1 -> 2 # note{char}more\ne 2 -> 3\n").directed_edges \
        == {(1, 2), (2, 3)}
    with pytest.raises(ParseError, match=r"^line 3: vertex id 9 out of range \[1,3\]$"):
        parse_graph(f"v 3\ne 1 -> 2{char}\ne 2 -> 9\n")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_each_universal_newline_ends_a_line(end):
    assert parse_graph(end.join(["v 3", "e 1 -> 2 # note", "e 2 -> 3", ""])).directed_edges \
        == {(1, 2), (2, 3)}
    with pytest.raises(ParseError, match=r"^line 3: vertex id 9 out of range \[1,3\]$"):
        parse_graph(end.join(["v 3", "e 1 -> 2", "e 2 -> 9", ""]))


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


@pytest.mark.parametrize("kwargs,bad", [
    (dict(directed=[(1.7, 2.9)]), 1.7),  # int() would build the edge 1 -> 2
    (dict(undirected=[(1, 2.5)]), 2.5),
    (dict(bidirected=[(2.0, 3)]), 2.0),
    (dict(u={1.5}), 1.5),
    (dict(w=[None]), None),
    (dict(directed=[("x", "2")]), "x"),
    # a string id is ASCII digits, as in a file: int() would read 10, 1 and 1
    (dict(directed=[("1_0", "2")]), "1_0"),
    (dict(u={"+1"}), "+1"),
    (dict(w=["١"]), "١"),
])
def test_make_graph_refuses_a_non_integral_id(kwargs, bad):
    with pytest.raises(InvalidGraphError) as exc:
        make_graph(3, **kwargs)
    assert exc.value.violations == [f"vertex id {bad!r} is not an integer"]


@pytest.mark.parametrize("kwargs,bad", [
    (dict(directed=["12"]), "12"),  # unpacked, a str would build the edge 1 -> 2
    (dict(undirected=["23"]), "23"),
    (dict(directed=[(1, 2, 3)]), (1, 2, 3)),
    (dict(bidirected=[(1,)]), (1,)),
    (dict(directed=[5]), 5),
    (dict(undirected=[()]), ()),
    # each unpacks into two ids, b"12" into 49 and 50 and the others into 1
    # and 2, a set's in the order it iterates
    *(({kind: [bad]}, bad) for kind in ("directed", "undirected", "bidirected")
      for bad in (b"12", bytearray(b"\x01\x02"), {1: 0, 2: 0}, {2, 1}, frozenset({1, 2}))),
], ids=repr)
def test_make_graph_refuses_an_edge_that_is_not_a_pair(kwargs, bad):
    # refused before anything is built, even after a valid edge
    with pytest.raises(InvalidGraphError) as exc:
        make_graph(3, **{kind: [(1, 3), *edges] for kind, edges in kwargs.items()})
    assert exc.value.violations == [f"edge {bad!r} is not a pair of vertex ids"]


def test_make_graph_takes_any_ordered_pair_as_an_edge():
    for kind in ("directed", "undirected", "bidirected"):
        assert make_graph(3, **{kind: [range(1, 3), [2, 3]]}) \
            == make_graph(3, **{kind: [(1, 2), (2, 3)]})


@pytest.mark.parametrize("m,problem", [
    *((m, f"vertex count {m!r} is not an integer") for m in (2.5, 3.0, None, "x", "2.5", [3],
                                                                   "+3", "3_0", "٣")),
    ("0", "vertex count must be positive, got 0"),
    ("1000001", "vertex count 1000001 exceeds the limit of 1000000"),
], ids=repr)
def test_make_graph_refuses_a_vertex_count(m, problem):
    # refused before anything is built; m converts by the rule for an id
    with pytest.raises(InvalidGraphError) as exc:
        make_graph(m, directed=[(1, 2)])
    assert exc.value.violations == [problem]


@pytest.mark.parametrize("m,count", [(True, 1), ("3", 3), (" 3 ", 3)])
def test_make_graph_reads_a_vertex_count_as_it_reads_an_id(m, count):
    # a bool is the int it stands for and a str of ASCII digits converts by
    # int(), as an id does; the graph keeps a plain int, which serialize writes back
    g = make_graph(m, directed=[(1, 3)] if count == 3 else ())
    assert type(g.m) is int and g.m == count and g.vertices == range(1, count + 1)
    assert g == make_graph(count, directed=g.directed_edges)
    assert serialize(g).startswith(f"v {count}\n") and parse_graph(serialize(g)) == g


def test_building_a_graph_pops_no_heap(monkeypatch):
    # acyclicity is decided by how many vertices Kahn's pass reaches, which
    # no pop order changes; only topological_order pops lowest id first
    texts = [SPIDER_TEXT, "v 4\ne 3 -> 1\ne 1 -> 4\ne 4 -> 3\ne 2 -> 1\n"]
    specs = [dict(m=7, directed=spider_graph().directed_edges),
             dict(m=4, directed=[(3, 1), (1, 4), (4, 3), (2, 1)], u={2})]

    def outcome(build, arg):
        try:
            return build(**arg) if isinstance(arg, dict) else build(arg)
        except InvalidGraphError as exc:
            return exc.violations

    cases = [(parse_graph, t) for t in texts] + [(make_graph, k) for k in specs]
    today = [outcome(build, arg) for build, arg in cases]
    assert [type(got) for got in today] == [MixedGraph, list] * 2
    assert today[1] == today[3] == ["directed cycle: 1,3,4"]

    def refuse(heap):
        raise AssertionError("a heap popped while building a graph")

    monkeypatch.setattr(graph.heapq, "heappop", refuse)
    assert [outcome(build, arg) for build, arg in cases] == today
    assert validate(today[0]) == [] and validate(today[2]) == []
    with pytest.raises(AssertionError, match="a heap popped"):
        topological_order(today[0])
    monkeypatch.undo()
    for g in today[0], today[2]:
        assert topological_order(g) == _kahn_reference(g) == [3, 6, 7, 1, 2, 4, 5]


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


def _check_walk(g, v):
    """`_ancestor_walk` lists an(v) once each, v first and each vertex
    before its parents."""
    walk = _ancestor_walk(v, g._parent_lists)
    where = {x: k for k, x in enumerate(walk)}
    assert len(where) == len(walk) and walk[0] == v
    assert set(walk) == _closure_reference(
        (v,), lambda x: [i for i, j in g.directed_edges if j == x])
    assert all(where[i] > where[j] for i, j in g.directed_edges if j in where)
    return walk


def test_ancestors_descendants():
    g = choke_graph()
    assert set(_check_walk(g, 5)) == {1, 2, 3, 4, 5}
    assert _check_walk(g, 1) == [1]
    assert {v for v in g.vertices if 2 in _check_walk(g, v)} == {2, 4, 5}  # descendants
    assert _check_walk(make_graph(3), 2) == [2]


_PATH = make_graph(5, undirected=[(1, 2), (2, 3), (3, 4), (4, 5)])  # undirected, m as the choke's
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
    "cross_check_rank": lambda g, v: cross_check_rank(g, {1}, {v}, 1),
    "cross_check_rank_empty_side": lambda g, v: cross_check_rank(g, [], [v], 1),
    "gvl_minor_two_ways": lambda g, v: gvl_minor_two_ways(g, sample_parameters(g, 1), {1}, {v}),
    "cauchy_binet_two_ways": lambda g, v: cauchy_binet_two_ways(
        g, sample_parameters(g, 1), {1}, {v}),
    "undirected_minor_check": lambda g, v: undirected_minor_check(
        _PATH, sample_parameters(_PATH, 1), {1}, {v}),
}


@pytest.mark.parametrize("v", [0, 6, 2.5, "a"], ids=["0", "m+1", "non-int", "str"])
@pytest.mark.parametrize("entry", sorted(_RANGE_CHECKED))
def test_every_entry_point_reports_an_out_of_range_vertex(entry, v):
    # each puts v in a set with an int: a str there must not be compared with it
    with pytest.raises(ValueError) as caught:
        _RANGE_CHECKED[entry](choke_graph(), v)
    assert str(caught.value) == f"vertex {v} out of range [1,5]"


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_the_vertex_named_does_not_depend_on_string_hashing(hash_seed):
    # of several bad members, the error names the same one in every run:
    # first what is not an int, by type name and repr, then the least int
    script = ("from treksep import make_graph, generic_rank\n"
              "for B in ({0, 9}, {9, 'b', 'a', 'c', 0, 2.5}, {'z', 'y', 'x', 'w', 'v', 'u'}):\n"
              "    try:\n"
              "        generic_rank(make_graph(5), {1}, B)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONHASHSEED": hash_seed,
                                           "PYTHONPATH": str(Path(graph.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["vertex 0 out of range [1,5]",
                                        "vertex 2.5 out of range [1,5]",
                                        "vertex u out of range [1,5]"]


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


def test_subdivision_matches_the_reference_and_is_valid():
    # built through _build, the subdivision equals the hand-built one, and
    # each of its sets iterates in the same order
    subdivided = 0
    for seed in range(300):
        for cls in (DAG, UNDIRECTED, MIXED):
            g = random_graph(cls, 4 + seed % 13, seed, 0.4)
            h, ref = bidirected_subdivision(g), bidirected_subdivision_reference(g)
            assert h == ref and validate(h) == []
            for field in ("u_set", "w_set", "directed_edges", "undirected_edges",
                          "bidirected_edges"):
                assert list(getattr(h, field)) == list(getattr(ref, field)), (cls, seed, field)
            subdivided += bool(g.bidirected_edges)
    assert subdivided >= 200, subdivided


@pytest.mark.parametrize("g,violations", [
    (MixedGraph(3, frozenset({3}), frozenset({1, 2}), frozenset({(1, 3)}), frozenset(),
                frozenset({(1, 2)})),
     ["vertex 1 cannot be in both U and W", "vertex 4 cannot be in both U and W",
      "U->W direction violated: directed edge 1 -> 3 points from W into U"]),
    (MixedGraph(3, frozenset({1, 2, 3}), frozenset(), frozenset(), frozenset({(1, 2)}),
                frozenset({(2, 3)})),
     ["vertex 4 cannot be in both U and W",
      "U->W direction violated: directed edge 4 -> 2 points from W into U",
      "U->W direction violated: directed edge 4 -> 3 points from W into U"]),
    (MixedGraph(3, frozenset(), frozenset({1, 2, 3}), frozenset({(1, 2), (2, 1)}), frozenset(),
                frozenset({(2, 3)})),
     ["directed cycle: 1,2"]),
    # a stray id past m, which a fresh vertex would take or which indexes past
    # the child lists, is refused before any fresh vertex is numbered
    (MixedGraph(3, frozenset(), frozenset({1, 2, 3}), frozenset({(4, 3)}), frozenset(),
                frozenset({(1, 2)})),
     ["directed edge (4,3): vertex 4 out of range [1,3]"]),
    (MixedGraph(3, frozenset(), frozenset({1, 2, 3}), frozenset({(9, 3)}), frozenset(),
                frozenset({(1, 2)})),
     ["directed edge (9,3): vertex 9 out of range [1,3]"]),
], ids=["W into U", "bidirected in U", "cycle", "id m+1", "id 9"])
def test_subdivision_of_an_invalid_graph_raises(g, violations):
    # a graph made directly, outside make_graph: _build checks its subdivision
    assert validate(g)
    with pytest.raises(InvalidGraphError) as exc:
        bidirected_subdivision(g)
    assert exc.value.violations == violations


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


@given(graph_cases)
def test_ancestor_walk_lists_each_vertex_before_its_parents(case):
    cls, n, seed = case
    g = random_graph(cls, n, seed, 0.5)
    for v in g.vertices:
        _check_walk(g, v)


def test_ancestor_walk_on_larger_graphs():
    rng = random.Random("ancestor-walk")
    for _ in range(20):
        g = random_graph(rng.choice((DAG, MIXED)), rng.randint(20, 40), rng.getrandbits(32),
                         rng.choice((0.05, 0.1, 0.3)))
        for v in rng.sample(range(1, g.m + 1), 5):
            _check_walk(g, v)


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

    def counted(m, directed, *in_range):
        listed.append(directed)
        return real(m, directed, *in_range)

    real = graph._list_directed
    monkeypatch.setattr(graph, "_list_directed", counted)
    rng = random.Random("directed index")
    kinds = Counter()
    for seed in range(60):
        g = random_graph((DAG, UNDIRECTED, MIXED)[seed % 3], 2 + seed % 13, seed, 0.4)
        listed.clear()
        built = [parse_graph(serialize(g)), parse_graph(_relabelled_text(g, rng)),
                 make_graph(g.m, g.directed_edges, g.undirected_edges,
                            g.bidirected_edges, u=g.u_set),
                 bidirected_subdivision(g)]
        assert len(listed) == len(built)
        s = built[3]
        direct = [MixedGraph(s.m, s.u_set, s.w_set, s.directed_edges, s.undirected_edges,
                             s.bidirected_edges),
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
