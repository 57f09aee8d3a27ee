"""Mixed graphs: parsing, validation, and structural transforms.

A mixed graph has vertices 1..m split into an undirected block U and a
bidirected block W.  Undirected edges live inside U, bidirected edges inside
W, directed edges never point from W into U, and the directed part is
acyclic.  A vertex pair may carry a directed edge alongside an undirected or
bidirected one.

Where each check lives:

- `parse_graph` reads a file in one pass and raises ParseError, with the
  line number, for its syntax: the `v <m>` header and the range of m, each
  id's form and range, the edge operator, a repeated edge (either
  orientation for `--` and `<->`) and ids listed under both `u` and `w`.
- `make_graph` turns the pairs an outside caller gives into ints, stores
  undirected and bidirected pairs as i < j, and checks the range of m
  before building anything and then, on the whole set, the range of the
  edge ids.
- `_build`, behind both, infers U (declared U vertices and the ends of
  undirected edges, closed under directed ancestors) and W (the rest of
  1..m, plus any declared W id outside it).  U is closed under directed
  ancestors, so most invariants hold by construction; `_build` checks each
  of the others once, on whole sets, and returns the graph when they all
  pass and the edge ids were in range.
- `validate` checks a built graph: U and W partition 1..m; no self-loop
  and no id out of range; undirected edges inside U, bidirected edges inside
  W; no directed edge from W into U; no directed cycle.  `_build` runs it
  only to list the violations of a graph that failed its checks, after the
  vertices that land in both U and W.

Only a check that fails sorts its edges, to list its violations in edge
order.

A graph keeps the one adjacency index of the package, which every module
but `separation._trek_steps` reads: the parent lists of `_build`'s closure
pass and the child lists of Kahn's pass (`_parent_lists`, `_child_lists`),
and the undirected and bidirected neighbour lists (`_undirected_lists`,
`_bidirected_lists`), which `_neighbours` lists on first read, so that a
parse does not pay for them.
A graph made directly through `MixedGraph(...)` lists its parents and
children on first read too.  `_closure` climbs the parent lists, for
`_build`'s U and the an(B) of a query, and descends the child lists for the
vertices below a trek's turns; `_ancestor_walk` climbs the parent lists for
the oracle's an(v), in the order its sweep needs.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import cached_property
from itertools import chain, starmap
from operator import eq

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
        return _list_parents(self.directed_edges)

    @cached_property
    def _child_lists(self) -> list[list[int]]:
        """_child_lists[v] lists the children of v (entry 0 unused)."""
        children = [[] for _ in range(self.m + 1)]
        for i, j in self.directed_edges:
            children[i].append(j)
        return children

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


def make_graph(m, directed=(), undirected=(), bidirected=(), u=None, w=None) -> MixedGraph:
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
    edges = (frozenset((int(i), int(j)) for i, j in directed),
             frozenset(_norm_pair(int(i), int(j)) for i, j in undirected),
             frozenset(_norm_pair(int(i), int(j)) for i, j in bidirected))
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

    par = _list_parents(directed)
    closure = _closure(u0, par.get)  # ancestral closure of U

    universe = set(range(1, m + 1))
    stray_w = declared_w - universe
    u_set = frozenset(closure - w0)
    w_set = universe - u_set
    w_set.update(stray_w)  # kept, so that validate reports them as it does for U
    g = MixedGraph(m, u_set, frozenset(w_set), directed, undirected, bidirected)
    object.__setattr__(g, "_parent_lists", par)  # the graph keeps it as its index

    # When these checks pass, validate would find nothing, so it runs only to
    # list what failed.  U is then the closure, inside 1..m, and W the rest
    # of 1..m, so they partition it.  Undirected ends seed U; bidirected ends
    # lie in 1..m outside U, hence in W.  U is closed under directed
    # ancestors, so no directed edge enters U from W.  Kahn's pass reaching
    # every vertex rules out a directed cycle, a directed self-loop included;
    # the other edges are checked for loops here.
    if not (in_range and closure.isdisjoint(w0) and not stray_w and universe.issuperset(closure)
            and not any(starmap(eq, chain(undirected, bidirected)))
            and len(_kahn(g)) == m):
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

    order = _kahn(g)
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


def _list_parents(directed) -> dict[int, list[int]]:
    """Each head of a directed edge -> the list of its tails, in edge order."""
    par = {}
    for i, j in directed:
        par.setdefault(j, []).append(i)
    return par


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


def _kahn(g: MixedGraph) -> list[int]:
    """Kahn's pass, lowest id first; it misses every vertex on or below a directed cycle."""
    children = g._child_lists
    indeg = [0] * (g.m + 1)
    for v, ps in g._parent_lists.items():
        indeg[v] = len(ps)
    heap = [v for v in g.vertices if not indeg[v]]  # ascending, hence a heap
    order = []
    while heap:  # the heap pops lowest id first, whatever order children come in
        v = heapq.heappop(heap)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(heap, c)
    return order


def _require_vertices(g: MixedGraph, vertices) -> None:
    """Raise ValueError for the first of vertices, in the order given, outside 1..m."""
    m = g.m
    for v in vertices:
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} out of range [1,{m}]")


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


def bidirected_subdivision(g: MixedGraph) -> MixedGraph:
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


def parse_graph(text: str) -> MixedGraph:
    """Parse the line-based graph format.

    Grammar: `v <m>` first, then optional `u`/`w` membership lines and
    `e i -> j`, `e i -- j`, `e i <-> j` edge lines.  `#` starts a comment.
    Raises ParseError for syntax problems and InvalidGraphError when the
    parsed graph breaks a structural invariant.
    """
    m = None
    explicit_u, explicit_w = set(), set()
    edge_sets = {op: set() for op in _EDGE_KINDS}

    def want_id(tok, line_no):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(line_no, f"expected a vertex id, got {tok!r}") from None
        if v < 1 or (m is not None and v > m):
            raise ParseError(line_no, f"vertex id {v} out of range [1,{m}]")
        return v

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if m is None:
            if kind != "v":
                raise ParseError(line_no, "first directive must be `v <m>`")
            if len(tokens) != 2:
                raise ParseError(line_no, "`v` takes exactly one argument")
            try:
                m = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {tokens[1]!r}") from None
            problem = _vertex_count_problem(m)
            if problem:
                raise ParseError(line_no, problem)
            continue
        if kind == "e":
            if len(tokens) != 4:
                raise ParseError(line_no, "edge lines look like `e <i> <op> <j>`")
            _, a, op, b = tokens
            try:
                i, j = int(a), int(b)
            except ValueError:
                i = j = 0
            if not (0 < i <= m and 0 < j <= m):  # want_id raises for the first bad id
                i, j = want_id(a, line_no), want_id(b, line_no)
            edges = edge_sets.get(op)
            if edges is None:
                raise ParseError(line_no, f"unknown edge kind {op!r}")
            size = len(edges)  # undirected and bidirected pairs are stored with i < j
            edges.add((j, i) if j < i and op != "->" else (i, j))
            if len(edges) == size:
                raise ParseError(line_no, f"duplicate {_EDGE_KINDS[op]} edge {i} {op} {j}")
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
        raise ParseError(line_no, f"unknown directive {kind!r}")

    if m is None:
        raise ParseError(1, "empty graph file: missing `v <m>` directive")
    both = explicit_u & explicit_w
    if both:
        raise ParseError(1, "vertices listed under both `u` and `w`: "
                         + ",".join(str(v) for v in sorted(both)))
    # iter(): a frozenset built from a set copies its table, but the edge
    # order the index lists is that of a frozenset built pair by pair
    directed, undirected, bidirected = (frozenset(iter(edge_sets[op])) for op in _EDGE_KINDS)
    # each edge id was range-checked on its line
    return _build(m, directed, undirected, bidirected, explicit_u, explicit_w, True)


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
