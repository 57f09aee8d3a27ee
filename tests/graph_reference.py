"""The graph parser, builder and validator that the one-pass parser replaced.

`parse_graph`, `make_graph`, `validate`, `_kahn`, `_closure` and
`_norm_pair` as they stood before parsing converted each id once and
validation ran on whole sets, copied verbatim apart from the `_reference`
suffix, the child lists that `_kahn_reference` builds from the directed
edges, the line ends that `parse_graph_reference` splits at (only \n,
\r\n and \r) and the ids and vertex count it reads (ASCII digits after
an optional `-`, as `_read_int_reference` matches them), so that
`tests/test_parse_differential.py` compares the library against code it
shares nothing with but the graph type, the exceptions and the
vertex-count rule.  `bidirected_subdivision_reference` is
`bidirected_subdivision` as it stood before it built its graph through
`_build`, copied verbatim apart from the suffix, so that
`tests/test_graph.py` checks the numbering and the edge order of the
subdivision against it.
"""

from __future__ import annotations

import heapq
import re
from typing import List

from treksep.graph import (InvalidGraphError, MixedGraph, ParseError,
                           _vertex_count_problem)


def _norm_pair_reference(i, j):
    return (i, j) if i < j else (j, i)



def make_graph_reference(m, directed=(), undirected=(), bidirected=(), u=None, w=None) -> MixedGraph:
    """Build and validate a MixedGraph, inferring the U/W partition.

    Vertices incident to undirected edges (plus any explicitly declared U
    vertices) seed U; U is then closed under directed ancestors so that no
    directed edge can point from W into U.  Everything else lands in W,
    which matches the pure-DAG convention of a diagonal Phi over all
    vertices.  Raises InvalidGraphError on any rule violation, and before
    building anything when m is not in 1..MAX_VERTICES.
    """
    problem = _vertex_count_problem(m)
    if problem:
        raise InvalidGraphError([problem])
    directed = frozenset((int(i), int(j)) for i, j in directed)
    undirected = frozenset(_norm_pair_reference(int(i), int(j)) for i, j in undirected)
    bidirected = frozenset(_norm_pair_reference(int(i), int(j)) for i, j in bidirected)

    u0 = set(u or ())
    w0 = set(w or ())
    for i, j in undirected:
        u0.update((i, j))
    for i, j in bidirected:
        w0.update((i, j))

    # ancestral closure of U under directed edges
    par = {}
    for i, j in directed:
        par.setdefault(j, []).append(i)
    closure = _closure_reference(u0, lambda v: par.get(v, ()))

    violations = []
    for v in sorted(closure & w0):
        violations.append(f"vertex {v} cannot be in both U and W")
    u_set = frozenset(closure - w0)
    w_set = frozenset(set(range(1, m + 1)) - u_set)

    g = MixedGraph(m, u_set, w_set, directed, undirected, bidirected)
    violations.extend(validate_reference(g))
    if violations:
        raise InvalidGraphError(violations)
    return g


def validate_reference(g: MixedGraph) -> List[str]:
    """Return a list of invariant violations; an empty list means valid."""
    out = []
    universe = set(g.vertices)
    if set(g.u_set) | set(g.w_set) != universe or (set(g.u_set) & set(g.w_set)):
        out.append("U and W do not partition the vertex set")

    def check_ids(kind, edges):
        for i, j in sorted(edges):
            if i == j:
                out.append(f"{kind} self-loop at vertex {i}")
            for v in (i, j):
                if v not in universe:
                    out.append(f"{kind} edge ({i},{j}): vertex {v} out of range [1,{g.m}]")

    check_ids("directed", g.directed_edges)
    check_ids("undirected", g.undirected_edges)
    check_ids("bidirected", g.bidirected_edges)
    if out:
        return out

    for i, j in sorted(g.undirected_edges):
        for v in (i, j):
            if v not in g.u_set:
                out.append(f"undirected edge {i} -- {j}: endpoint {v} is not in U")
    for i, j in sorted(g.bidirected_edges):
        for v in (i, j):
            if v not in g.w_set:
                out.append(f"bidirected edge {i} <-> {j}: endpoint {v} is not in W")
    for i, j in sorted(g.directed_edges):
        if i in g.w_set and j in g.u_set:
            out.append(f"U->W direction violated: directed edge {i} -> {j} points from W into U")

    order = _kahn_reference(g)
    if len(order) != g.m:
        reached = set(order)
        out.append("directed cycle: " + ",".join(str(v) for v in g.vertices if v not in reached))
    return out



def _kahn_reference(g: MixedGraph) -> List[int]:
    """Kahn's pass, lowest id first; it misses every vertex on or below a directed cycle."""
    indeg = {v: 0 for v in g.vertices}
    children = {v: [] for v in g.vertices}
    for i, j in g.directed_edges:
        indeg[j] += 1
        children[i].append(j)
    heap = [v for v in g.vertices if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)
    return order



def _closure_reference(start, step) -> set:
    """The vertices of start and every vertex reached from them by step(v)."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for x in step(stack.pop()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen



def _read_int_reference(tok: str) -> int:
    """int(tok) for a token of ASCII digits, perhaps after a `-`; ValueError otherwise."""
    if re.fullmatch(r"-?[0-9]+", tok) is None:
        raise ValueError(tok)
    return int(tok)


def parse_graph_reference(text: str) -> MixedGraph:
    """Parse the line-based graph format.

    Grammar: `v <m>` first, then optional `u`/`w` membership lines and
    `e i -> j`, `e i -- j`, `e i <-> j` edge lines.  `#` starts a comment.
    Raises ParseError for syntax problems and InvalidGraphError when the
    parsed graph breaks a structural invariant.
    """
    m = None
    explicit_u, explicit_w = set(), set()
    directed, undirected, bidirected = set(), set(), set()

    def want_id(tok, line_no):
        try:
            v = _read_int_reference(tok)
        except ValueError:
            raise ParseError(line_no, f"expected a vertex id, got {tok!r}") from None
        if v < 1 or (m is not None and v > m):
            raise ParseError(line_no, f"vertex id {v} out of range [1,{m}]")
        return v

    # a line ends only at \n, \r\n or \r, as under open()'s universal newlines
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if m is None:
            if kind != "v":
                raise ParseError(line_no, "first directive must be `v <m>`")
            if len(tokens) != 2:
                raise ParseError(line_no, "`v` takes exactly one argument")
            try:
                m = _read_int_reference(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {tokens[1]!r}") from None
            problem = _vertex_count_problem(m)
            if problem:
                raise ParseError(line_no, problem)
            continue
        if kind == "v":
            raise ParseError(line_no, "duplicate `v` directive")
        if kind in ("u", "w"):
            target = explicit_u if kind == "u" else explicit_w
            if len(tokens) < 2:
                raise ParseError(line_no, f"`{kind}` needs at least one vertex id")
            for tok in tokens[1:]:
                target.add(want_id(tok, line_no))
            continue
        if kind == "e":
            if len(tokens) != 4:
                raise ParseError(line_no, "edge lines look like `e <i> <op> <j>`")
            i = want_id(tokens[1], line_no)
            j = want_id(tokens[3], line_no)
            op = tokens[2]
            if op == "->":
                if (i, j) in directed:
                    raise ParseError(line_no, f"duplicate directed edge {i} -> {j}")
                directed.add((i, j))
            elif op == "--":
                if _norm_pair_reference(i, j) in undirected:
                    raise ParseError(line_no, f"duplicate undirected edge {i} -- {j}")
                undirected.add(_norm_pair_reference(i, j))
            elif op == "<->":
                if _norm_pair_reference(i, j) in bidirected:
                    raise ParseError(line_no, f"duplicate bidirected edge {i} <-> {j}")
                bidirected.add(_norm_pair_reference(i, j))
            else:
                raise ParseError(line_no, f"unknown edge kind {op!r}")
            continue
        raise ParseError(line_no, f"unknown directive {kind!r}")

    if m is None:
        raise ParseError(1, "empty graph file: missing `v <m>` directive")
    both = explicit_u & explicit_w
    if both:
        raise ParseError(1, "vertices listed under both `u` and `w`: "
                         + ",".join(str(v) for v in sorted(both)))
    return make_graph_reference(m, directed, undirected, bidirected, u=explicit_u, w=explicit_w)


def bidirected_subdivision_reference(g: MixedGraph) -> MixedGraph:
    """Replace each bidirected edge i <-> j by a fresh vertex with edges into i and j.

    Fresh vertices get ids m+1, m+2, ... following the lexicographic order of
    the (i, j) pairs, so the result is deterministic.
    """
    directed = set(g.directed_edges)
    new_w = set(g.w_set)
    next_id = g.m
    for i, j in sorted(g.bidirected_edges):
        next_id += 1
        new_w.add(next_id)
        directed.add((next_id, i))
        directed.add((next_id, j))
    return MixedGraph(
        m=next_id,
        u_set=g.u_set,
        w_set=frozenset(new_w),
        directed_edges=frozenset(directed),
        undirected_edges=g.undirected_edges,
        bidirected_edges=frozenset(),
    )
