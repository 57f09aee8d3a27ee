"""Mixed graphs: parsing, validation, and structural transforms.

A mixed graph has vertices 1..m split into an undirected block U and a
bidirected block W.  Undirected edges live inside U, bidirected edges inside
W, directed edges never point from W into U, and the directed part is
acyclic.  A vertex pair may carry a directed edge alongside an undirected or
bidirected one.

Where each check lives:

- `parse_graph` raises ParseError, with the line number, for a file's
  syntax: the `v <m>` header and the range of m, each id's form and range,
  the edge operator, a repeated edge (either orientation for `--` and
  `<->`) and ids listed under both `u` and `w`.  Past the header, its one
  pass lists each kind's pairs and freezes each list once, and only
  detects a fault: a repeated edge shows as a set shorter than its list.
  `_first_fault` then rescans the lines in order and names the first
  faulty one, a repeated edge included.
- `make_graph` turns the vertex count and the ids an outside caller gives,
  edge ends and the u and w sets, into ints (refusing one that is not
  integral), stores undirected and bidirected pairs as i < j, and checks
  the range of m before building anything and then, on the whole set, the
  range of the edge ids.
- `_build`, behind both and `bidirected_subdivision`, makes every graph
  of the package.  It lists the parents and children of the directed
  edges in one pass and infers U (declared U vertices and the ends of
  undirected edges, closed under directed ancestors) and W (the rest of
  1..m, plus any declared W id outside it).  U is closed under directed
  ancestors, so most invariants hold by construction; `_build` checks each
  of the others once, on whole sets, acyclicity by counting the vertices
  Kahn's pass reaches in any order, and returns the graph when they all
  pass and the edge ids were in range.
- `validate` checks a built graph: U and W partition 1..m; no self-loop
  and no id out of range; undirected edges inside U, bidirected edges inside
  W; no directed edge from W into U; no directed cycle.  `_build` runs it
  only to list the violations of a graph that failed its checks, after the
  vertices that land in both U and W.  Only `topological_order` needs the
  lowest-id-first order of Kahn's pass, and only it pays for a heap.

Only a check that fails sorts its edges, to list its violations in edge
order.

A graph keeps the one adjacency index of the package, which every module
but `separation._trek_steps` reads: the parent and child lists that
`_build` makes in one pass (`_parent_lists`, `_child_lists`), and the
undirected and bidirected neighbour lists (`_undirected_lists`,
`_bidirected_lists`), which `_neighbours` lists on first read, so that a
parse does not pay for them.
A graph made directly through `MixedGraph(...)`, which only code outside
the package does, lists its parents and children on first read too.
`_closure` climbs the parent lists, for `_build`'s U and the an(B) of a
query, and descends the child lists for the vertices below a trek's turns;
`_ancestor_walk` climbs the parent lists for the oracle's an(v), in the
order its sweep needs.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Mapping, Set
from functools import cached_property
from itertools import chain, starmap
from operator import eq, index

DAG = "DAG"
UNDIRECTED = "Undirected"
MIXED = "Mixed"

# Largest vertex count `make_graph` and `parse_graph` accept: a graph costs
# memory in proportion to its vertex count, so a one-line file must not ask
# for more.
MAX_VERTICES = 10**6


class GraphError(Exception):
    """Base class for graph construction failures."""


class ParseError(GraphError):
    """Syntax error in a graph file."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class InvalidGraphError(GraphError):
    """Structural invariant violation(s) in a graph."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MixedGraph:
    """Immutable mixed graph on vertices 1..m.

    Undirected and bidirected edges are stored as (i, j) with i < j;
    directed edges as ordered (i, j) pairs.  Two graphs are equal when
    their six fields are, and a graph hashes as the tuple of its fields.
    A plain class, not a tuple: a graph can be weakly referenced (the tests
    check that a query frees it this way), and its adjacency index lives
    in its instance dict.
    """

    def __init__(self, m: int, u_set: frozenset[int], w_set: frozenset[int],
                 directed_edges: frozenset[tuple[int, int]],
                 undirected_edges: frozenset[tuple[int, int]],
                 bidirected_edges: frozenset[tuple[int, int]]):
        self.__dict__.update(m=m, u_set=u_set, w_set=w_set, directed_edges=directed_edges,
                             undirected_edges=undirected_edges,
                             bidirected_edges=bidirected_edges)

    def _key(self) -> tuple:
        return (self.m, self.u_set, self.w_set, self.directed_edges, self.undirected_edges,
                self.bidirected_edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MixedGraph(m={self.m!r}, u_set={self.u_set!r}, w_set={self.w_set!r}, "
                f"directed_edges={self.directed_edges!r}, "
                f"undirected_edges={self.undirected_edges!r}, "
                f"bidirected_edges={self.bidirected_edges!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(value).__name__} to {name!r}: "
                             "a MixedGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a MixedGraph is immutable")

    @property
    def vertices(self) -> range:
        return range(1, self.m + 1)

    # The adjacency index (module doc).

    @cached_property
    def _parent_lists(self) -> dict[int, list[int]]:
        """Each vertex with a parent -> the list of its parents (`_build` stores its own)."""
        return _list_directed(self.m, self.directed_edges)[0]

    @cached_property
    def _child_lists(self) -> list[list[int]]:
        """_child_lists[v] lists the children of v (entry 0 unused; `_build` stores its own)."""
        return _list_directed(self.m, self.directed_edges)[1]

    @cached_property
    def _undirected_lists(self) -> list[tuple[int, ...]]:
        """_undirected_lists[v] holds the undirected neighbours of v (entry 0 unused)."""
        return _neighbours(self.m, self.undirected_edges)

    @cached_property
    def _bidirected_lists(self) -> list[tuple[int, ...]]:
        """_bidirected_lists[v] holds the bidirected neighbours of v (entry 0 unused)."""
        return _neighbours(self.m, self.bidirected_edges)

    @cached_property
    def parent_mask(self) -> tuple[int, ...]:
        """parent_mask[v] has bit p set for each parent p of v (entry 0 unused)."""
        mask = [0] * (self.m + 1)
        for i, j in self.directed_edges:
            mask[j] |= 1 << i
        return tuple(mask)

    @cached_property
    def child_mask(self) -> tuple[int, ...]:
        """child_mask[v] has bit c set for each child c of v (entry 0 unused)."""
        mask = [0] * (self.m + 1)
        for i, j in self.directed_edges:
            mask[i] |= 1 << j
        return tuple(mask)


def graph_class(g: MixedGraph) -> str:
    """Classify a graph as DAG, Undirected or Mixed by its edge kinds."""
    if not g.undirected_edges and not g.bidirected_edges:
        return DAG
    if not g.directed_edges and not g.bidirected_edges:
        return UNDIRECTED
    return MIXED


# The edge operators of the file format and the kinds they stand for.
_EDGE_KINDS = {"->": "directed", "--": "undirected", "<->": "bidirected"}


def _norm_pair(i, j):
    return (i, j) if i < j else (j, i)


def _vertex_count_problem(m: int) -> str | None:
    """Why m is not an acceptable vertex count, or None if it is."""
    if m < 1:
        return f"vertex count must be positive, got {m}"
    if m > MAX_VERTICES:
        return f"vertex count {m} exceeds the limit of {MAX_VERTICES}"
    return None


def _ascii_int(tok: str) -> int:
    """The int that tok writes in the ASCII digits 0-9, perhaps after a `-`
    (a negative id is out of range); ValueError for anything else.  int()
    alone also reads a `+`, `_` between digits and non-ASCII digits."""
    if tok.isascii() and "+" not in tok and "_" not in tok:
        return int(tok)
    raise ValueError(tok)


def _vertex_id(v, what="vertex id") -> int:
    """v as a plain int: a str `_ascii_int` reads, or a value operator.index takes."""
    try:
        return _ascii_int(v) if isinstance(v, str) else index(v)
    except (TypeError, ValueError):
        raise InvalidGraphError([f"{what} {v!r} is not an integer"]) from None


# What `_edge` refuses though it may unpack into two ids: "12" and b"12" would
# unpack into 1 and 2 or 49 and 50, and a set or a mapping has no order.
_NOT_EDGES = (str, bytes, bytearray, Set, Mapping)


def _edge(e) -> tuple[int, int]:
    """e as a pair of plain ints: e unpacks into two ids, in an order it keeps."""
    try:
        if isinstance(e, _NOT_EDGES):
            raise TypeError
        i, j = e
    except (TypeError, ValueError):
        raise InvalidGraphError([f"edge {e!r} is not a pair of vertex ids"]) from None
    return _vertex_id(i), _vertex_id(j)


def make_graph(m, directed=(), undirected=(), bidirected=(), u=None, w=None) -> MixedGraph:
    """Build and validate a MixedGraph, inferring the U/W partition.

    Vertices incident to undirected edges (plus any explicitly declared U
    vertices) seed U; U is then closed under directed ancestors so that no
    directed edge can point from W into U.  Everything else lands in W,
    which matches the pure-DAG convention of a diagonal Phi over all
    vertices.  Raises InvalidGraphError on any rule violation, and before
    building anything when m is not an integer in 1..MAX_VERTICES, an edge
    is a string of characters or bytes, a set or a mapping, or does not
    unpack into two ids, or an edge, u or w id is not an integer.  m and the
    ids convert by one rule.
    """
    m = _vertex_id(m, "vertex count")
    problem = _vertex_count_problem(m)
    if problem:
        raise InvalidGraphError([problem])
    edges = (frozenset(map(_edge, directed)),
             frozenset(_norm_pair(*_edge(e)) for e in undirected),
             frozenset(_norm_pair(*_edge(e)) for e in bidirected))
    u, w = (set(map(_vertex_id, ids or ())) for ids in (u, w))
    in_range = set(range(1, m + 1)).issuperset(chain.from_iterable(chain(*edges)))
    return _build(m, *edges, u, w, in_range)


def _build(m, directed, undirected, bidirected, u, w, in_range) -> MixedGraph:
    """make_graph's work on edge frozensets of ints, with undirected and bidirected pairs i < j.

    in_range tells whether every edge id is known to lie in 1..m.
    """
    u0 = set(u or ())
    declared_w = set(w or ())
    u0.update(*undirected)
    w0 = declared_w.union(*bidirected)

    par, children = _list_directed(m, directed, in_range)
    closure = _closure(u0, par.get)  # ancestral closure of U

    universe = set(range(1, m + 1))
    stray_w = declared_w - universe
    u_set = frozenset(closure - w0)
    w_set = universe - u_set
    w_set.update(stray_w)  # kept, so that validate reports them as it does for U
    g = MixedGraph(m, u_set, frozenset(w_set), directed, undirected, bidirected)
    vars(g).update(_parent_lists=par, _child_lists=children)  # the graph keeps its index

    # When these checks pass, validate would find nothing, so it runs only to
    # list what failed.  U is then the closure, inside 1..m, and W the rest
    # of 1..m, so they partition it.  Undirected ends seed U; bidirected ends
    # lie in 1..m outside U, hence in W.  U is closed under directed
    # ancestors, so no directed edge enters U from W.  Kahn's pass reaching
    # every vertex, in any order, rules out a directed cycle, a directed
    # self-loop included; the other edges are checked for loops here.
    if not (in_range and closure.isdisjoint(w0) and not stray_w and universe.issuperset(closure)
            and not any(starmap(eq, chain(undirected, bidirected)))
            and len(_kahn(g, ordered=False)) == m):
        violations = [f"vertex {v} cannot be in both U and W" for v in sorted(closure & w0)]
        violations.extend(validate(g))
        if violations:
            raise InvalidGraphError(violations)
    return g


def validate(g: MixedGraph) -> list[str]:
    """Return a list of invariant violations; an empty list means valid."""
    out = []
    universe = set(g.vertices)
    u_set, w_set = g.u_set, g.w_set
    if u_set | w_set != universe or not u_set.isdisjoint(w_set):
        out.append("U and W do not partition the vertex set")

    for kind, edges in (("directed", g.directed_edges), ("undirected", g.undirected_edges),
                        ("bidirected", g.bidirected_edges)):
        if any(starmap(eq, edges)) or not universe.issuperset(chain.from_iterable(edges)):
            for i, j in sorted(edges):
                if i == j:
                    out.append(f"{kind} self-loop at vertex {i}")
                for v in (i, j):
                    if v not in universe:
                        out.append(f"{kind} edge ({i},{j}): vertex {v} out of range [1,{g.m}]")
    if out:
        return out

    for kind, edges, block, name, link in (
            ("undirected", g.undirected_edges, u_set, "U", "--"),
            ("bidirected", g.bidirected_edges, w_set, "W", "<->")):
        if not block.issuperset(chain.from_iterable(edges)):
            for i, j in sorted(edges):
                for v in (i, j):
                    if v not in block:
                        out.append(f"{kind} edge {i} {link} {j}: endpoint {v} is not in {name}")
    if any(i in w_set and j in u_set for i, j in g.directed_edges):
        for i, j in sorted(g.directed_edges):
            if i in w_set and j in u_set:
                out.append(f"U->W direction violated: directed edge {i} -> {j} points from W into U")

    order = _kahn(g, ordered=False)
    if len(order) != g.m:
        reached = set(order)
        out.append("directed cycle: " + ",".join(str(v) for v in g.vertices if v not in reached))
    return out


def topological_order(g: MixedGraph) -> list[int]:
    """Kahn's procedure with a lowest-id-first tie-break."""
    order = _kahn(g)
    if len(order) != g.m:
        raise InvalidGraphError(["directed cycle detected"])
    return order


def _list_directed(m, directed, in_range=True) -> tuple[dict[int, list[int]], list[list[int]]]:
    """The parent lists (each head of an edge -> its tails) and the child
    lists (children[v] holds v's heads, entry 0 unused) of directed, each in
    edge order, made in one pass.  Unless every id is known to lie in 1..m,
    the child lists are a defaultdict: `validate` stops at a stray id before
    it reads them."""
    par = {}
    children = [[] for _ in range(m + 1)] if in_range else defaultdict(list)
    for i, j in directed:
        par.setdefault(j, []).append(i)
        children[i].append(j)
    return par, children


def _neighbours(m, edges) -> list[tuple[int, ...]]:
    """nbr[v] holds the neighbours of v along edges, a set of pairs (entry 0 unused).

    Tuples, not lists: the garbage collector stops tracking them, which on
    a large graph saves more than growing them costs.  A tuple grows by
    copying, so past 64 neighbours the rest wait in a list, joined once at
    the end: linear in the edges, in edge order either way.
    """
    nbr = [()] * (m + 1)
    more = defaultdict(list)
    for i, j in edges:
        t = nbr[i]
        if len(t) < 64:
            nbr[i] = t + (j,)
        else:
            more[i].append(j)
        t = nbr[j]
        if len(t) < 64:
            nbr[j] = t + (i,)
        else:
            more[j].append(i)
    for v, rest in more.items():
        nbr[v] += tuple(rest)
    return nbr


def _kahn(g: MixedGraph, ordered=True) -> list[int]:
    """Kahn's pass, lowest id first when ordered; it misses every vertex on
    or below a directed cycle, whichever ready vertex it takes next, so
    without order it pops the last from a plain list instead of a heap."""
    pop, push = (heapq.heappop, heapq.heappush) if ordered else (list.pop, list.append)
    children = g._child_lists
    indeg = [0] * (g.m + 1)
    for v, ps in g._parent_lists.items():
        indeg[v] = len(ps)
    ready = [v for v in g.vertices if not indeg[v]]  # ascending, hence a heap
    order = []
    while ready:
        v = pop(ready)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if not indeg[c]:
                push(ready, c)
    return order


def _require_vertices(g: MixedGraph, vertices) -> None:
    """Raise ValueError unless every one of vertices is an int in 1..m.

    The error names the first that is not in an order that is the same in
    every run and compares no int with another type: the members that are
    not ints first, by type name and repr (a string's hash, and so where it
    falls in a set, varies from run to run), then the ints in increasing
    order.
    """
    m = g.m
    bad = [v for v in vertices if not (isinstance(v, int) and 1 <= v <= m)]
    if bad:
        first = min(bad, key=lambda v: (1, v, "") if isinstance(v, int)
                    else (0, type(v).__name__, repr(v)))
        raise ValueError(f"vertex {first} out of range [1,{m}]")


def _closure(start, step) -> set:
    """The vertices of start and every vertex reached from them by step, a
    map from a vertex to the vertices it leads to (None for none), such as
    `_parent_lists.get`."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for x in step(stack.pop()) or ():
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def _ancestor_walk(v: int, parents) -> list[int]:
    """an(v), v first and each vertex before its parents: a depth-first
    post-order up the parent lists `parents`, reversed."""
    order = []
    seen = set()
    stack = [v]  # a vertex to enter, or ~j: j's parents are all listed
    while stack:
        j = stack.pop()
        if j < 0:
            order.append(~j)
        elif j not in seen:
            seen.add(j)
            stack.append(~j)
            stack.extend(parents.get(j, ()))
    order.reverse()
    return order


def _subdivision_ids(g: MixedGraph) -> dict[tuple[int, int], int]:
    """Each bidirected edge of g -> its fresh vertex in the subdivision:
    m+1, m+2, ... in the sorted order of the (i, j) pairs."""
    return {e: v for v, e in enumerate(sorted(g.bidirected_edges), start=g.m + 1)}


def bidirected_subdivision(g: MixedGraph) -> MixedGraph:
    """Replace each bidirected edge i <-> j by a fresh W vertex with edges into i and j.

    `_subdivision_ids` numbers the fresh vertices.  An edge id of g outside
    1..m, which a fresh vertex could take, raises InvalidGraphError with
    `validate`'s list first.  `_build` checks the result like any graph: an
    edge from W into U, a bidirected edge in U or a directed cycle in g
    raises InvalidGraphError.
    """
    edges = (g.directed_edges, g.undirected_edges, g.bidirected_edges)
    if not set(g.vertices).issuperset(chain.from_iterable(chain(*edges))):
        raise InvalidGraphError(validate(g))
    fresh = _subdivision_ids(g)
    directed = set(g.directed_edges)
    for (i, j), v in fresh.items():
        directed.update(((v, i), (v, j)))
    return _build(g.m + len(fresh), frozenset(directed), g.undirected_edges, frozenset(),
                  g.u_set, g.w_set.union(fresh.values()), True)


def parse_graph(text: str) -> MixedGraph:
    """Parse the line-based graph format.

    Grammar: `v <m>` first, then optional `u`/`w` membership lines and
    `e i -> j`, `e i -- j`, `e i <-> j` edge lines.  `#` starts a comment.
    m and every id are written in the ASCII digits 0-9.  Raises ParseError
    for syntax problems and InvalidGraphError when the parsed graph breaks
    a structural invariant.
    """
    # only \n, \r\n and \r end a line, as open()'s universal newlines read them
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    body = text
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
        body = "\n".join(lines)
    # ids and the count are ASCII digits: int() reads them as _ascii_int does
    # unless the body holds a `+`, a `_` or a non-ASCII character, and one
    # test of the whole body keeps that check out of the line loop
    read = int if body.isascii() and "+" not in body and "_" not in body else _ascii_int
    rows = map(str.split, lines)
    for start, tokens in enumerate(rows, start=1):
        if tokens:
            break
    else:
        raise ParseError(1, "empty graph file: missing `v <m>` directive")
    if tokens[0] != "v":
        raise ParseError(start, "first directive must be `v <m>`")
    if len(tokens) != 2:
        raise ParseError(start, "`v` takes exactly one argument")
    try:
        m = read(tokens[1])
    except ValueError:
        raise ParseError(start, f"bad vertex count {tokens[1]!r}") from None
    problem = _vertex_count_problem(m)
    if problem:
        raise ParseError(start, problem)

    # Past the header, line `start`, the loop only detects a fault: a bad id
    # or operator, a line that is no edge, u or w line (a KeyError), a u or w
    # line with no id (min() of nothing) or a repeated edge (a set shorter
    # than its list).  _first_fault names the first.
    pairs = {op: [] for op in _EDGE_KINDS}  # undirected and bidirected pairs i < j
    declared = {"u": set(), "w": set()}
    try:
        for tokens in rows:
            if len(tokens) == 4 and tokens[0] == "e":
                _, a, op, b = tokens
                i, j = read(a), read(b)
                if not (0 < i <= m and 0 < j <= m):
                    raise ValueError
                pairs[op].append((j, i) if j < i and op != "->" else (i, j))
            elif tokens:
                ids = list(map(read, tokens[1:]))
                if not (0 < min(ids) and max(ids) <= m):
                    raise ValueError
                declared[tokens[0]].update(ids)
        edge_sets = []
        for listed in pairs.values():
            edges = frozenset(listed)
            if len(edges) < len(listed):
                raise ValueError
            # iter(): frozenset(edges) is edges itself, but the edge order the
            # index lists is that of a frozenset built pair by pair from it
            edge_sets.append(frozenset(iter(edges)))
    except (ValueError, KeyError):
        raise _first_fault(lines, start, m) from None
    explicit_u, explicit_w = declared["u"], declared["w"]
    both = explicit_u & explicit_w
    if both:
        raise ParseError(1, "vertices listed under both `u` and `w`: "
                         + ",".join(str(v) for v in sorted(both)))
    # each edge id was range-checked on its line
    return _build(m, *edge_sets, explicit_u, explicit_w, True)


def _first_fault(lines, start: int, m: int) -> ParseError:
    """The ParseError for the first faulty line after the `v` header, line
    `start`, of a graph with m vertices: an edge that repeats an earlier one
    is the fault of its line.  `parse_graph` calls it only once it has
    detected a fault."""
    seen = set()
    for line_no, tokens in enumerate(map(str.split, lines[start:]), start=start + 1):
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e" and len(tokens) != 4:
            return ParseError(line_no, "edge lines look like `e <i> <op> <j>`")
        if kind == "v":
            return ParseError(line_no, "duplicate `v` directive")
        if kind not in ("e", "u", "w"):
            return ParseError(line_no, f"unknown directive {kind!r}")
        if len(tokens) < 2:
            return ParseError(line_no, f"`{kind}` needs at least one vertex id")
        for tok in (tokens[1], tokens[3]) if kind == "e" else tokens[1:]:
            try:
                v = _ascii_int(tok)
            except ValueError:
                return ParseError(line_no, f"expected a vertex id, got {tok!r}")
            if not 0 < v <= m:
                return ParseError(line_no, f"vertex id {v} out of range [1,{m}]")
        if kind == "e":
            _, a, op, b = tokens
            if op not in _EDGE_KINDS:
                return ParseError(line_no, f"unknown edge kind {op!r}")
            i, j = int(a), int(b)
            edge = (op, j, i) if j < i and op != "->" else (op, i, j)
            if edge in seen:
                return ParseError(line_no, f"duplicate {_EDGE_KINDS[op]} edge {i} {op} {j}")
            seen.add(edge)
    raise AssertionError("parse_graph detected a fault that no line has")


def serialize(g: MixedGraph) -> str:
    """Render a graph in the file format; parse_graph(serialize(g)) == g."""
    lines = [f"v {g.m}"]
    if g.u_set:
        lines.append("u " + " ".join(str(v) for v in sorted(g.u_set)))
    if g.w_set:
        lines.append("w " + " ".join(str(v) for v in sorted(g.w_set)))
    for i, j in sorted(g.directed_edges):
        lines.append(f"e {i} -> {j}")
    for i, j in sorted(g.undirected_edges):
        lines.append(f"e {i} -- {j}")
    for i, j in sorted(g.bidirected_edges):
        lines.append(f"e {i} <-> {j}")
    return "\n".join(lines) + "\n"
