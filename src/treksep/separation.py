"""t-separation, minimum separators via vertex min-cut, and CI queries.

The workhorse is the three-layer trek network of a graph.  Each vertex v
has a left level (the directed path into A, walked against the edge
directions), a middle level (undirected travel) and a right level (the
directed path into B), and each level is split into an in-node and an
out-node joined by a split arc.  Nodes are ints: level l of v (left 0,
middle 1, right 2) has in-node 2*(3*(v-1)+l) and out-node one more, 6m
nodes in all.  Arcs live in paired lists `head` and `cap` (residual
capacity), arc e ^ 1 being the reverse of arc e.  The split arcs come
first, so the split arc of a level has the number of its in-node.

A bidirected edge i <-> j, a latent common parent of i and j, is the
middle of the treks whose left path climbs to i or j and whose right path
starts at i or j: four arcs from the left out-nodes of i and j to the
right in-nodes of i and j.  The arcs i -> i and j -> j matter, since a
trek i <- (latent) -> i does not pass the middle level of i.

The network has no source or sink: paths from a left in-node of A to a
right out-node of B are the treks from A to B, and unit split capacities
turn minimum blocking sets into minimum cuts (Menger).  Every other arc
has capacity m+1, more than any flow, so each augmenting path, found by
one breadth-first search from all of A, carries one unit and at most
min(|A|, |B|) + 1 searches run.  The certificate is the set of split arcs
leaving what the last search reaches: the unique minimal source-side
minimum cut, whichever paths were augmented.  The network depends on the
graph alone: it is kept for the last graph queried, and each query works
on its own copy of `cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from .graph import DAG, MixedGraph, graph_class
from .treks import CapExceededError


class NotADAGError(Exception):
    """Operation requires a purely directed acyclic graph."""


class InternalError(RuntimeError):
    """A max-flow invariant failed: a bug in this module, not bad input."""


@dataclass(frozen=True)
class SeparationTriple:
    c_left: FrozenSet[int] = frozenset()
    c_mid: FrozenSet[int] = frozenset()
    c_right: FrozenSet[int] = frozenset()

    @classmethod
    def of(cls, cl=(), cm=(), cr=()) -> "SeparationTriple":
        return cls(frozenset(cl), frozenset(cm), frozenset(cr))

    def size(self) -> int:
        return len(self.c_left) + len(self.c_mid) + len(self.c_right)

    def dag_pair_view(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """(C_A, C_B) with the middle layer folded into the left side."""
        return (self.c_left | self.c_mid, self.c_right)


@dataclass(frozen=True)
class RankResult:
    rank: int
    certificate: SeparationTriple
    flow_value: int


class TrekNetwork(NamedTuple):
    """The trek network of one graph; node numbering in the module doc."""

    head: List[int]       # node that arc e enters; arc e ^ 1 is its reverse
    cap: List[int]        # residual capacity of arc e
    out: List[List[int]]  # arcs leaving node u, reverse arcs included


def trek_network(g: MixedGraph) -> TrekNetwork:
    """Network whose paths from left in-nodes to right out-nodes are treks."""
    m = g.m
    # Vertex v owns nodes 6v-6 .. 6v-1: left in/out, middle in/out, right
    # in/out.  Arc k runs tails[k] -> heads[k]; the 3m split arcs come first.
    tails = list(range(0, 6 * m, 2))
    heads = list(range(1, 6 * m, 2))
    # a trek turns left -> middle -> right at its top vertex
    tails += range(1, 6 * m, 6)
    heads += range(2, 6 * m, 6)
    tails += range(3, 6 * m, 6)
    heads += range(4, 6 * m, 6)
    # the right path runs along i -> j, the left path against it
    tails += [6 * i - 1 for i, _ in g.directed_edges]
    heads += [6 * j - 2 for _, j in g.directed_edges]
    tails += [6 * j - 5 for _, j in g.directed_edges]
    heads += [6 * i - 6 for i, _ in g.directed_edges]
    for i, j in g.undirected_edges:
        tails += (6 * i - 3, 6 * j - 3)
        heads += (6 * j - 4, 6 * i - 4)
    # a bidirected middle runs from the left path of i or j to the right path
    for i, j in g.bidirected_edges:
        tails += (6 * i - 5, 6 * i - 5, 6 * j - 5, 6 * j - 5)
        heads += (6 * i - 2, 6 * j - 2, 6 * i - 2, 6 * j - 2)

    head = [0] * (2 * len(tails))
    head[0::2] = heads
    head[1::2] = tails
    cap = [0] * len(head)
    cap[0::2] = [1] * (3 * m) + [m + 1] * (len(tails) - 3 * m)
    out: List[List[int]] = [[] for _ in range(6 * m)]
    for e, x in enumerate(head):
        out[x].append(e ^ 1)  # arc e ^ 1 leaves the node arc e enters
    return TrekNetwork(head, cap, out)


_last = (None, None)  # the last graph queried and its trek network


def _network(g: MixedGraph, A, B) -> TrekNetwork:
    """Check the query (A, B); the network of g, with its own `cap`.

    Built only if g is not the last graph queried, after dropping the old
    network, so that one at most is alive and the build reuses its memory.
    """
    global _last
    if not A or not B:
        raise ValueError("A and B must be nonempty")
    for v in sorted(A | B):
        if not 1 <= v <= g.m:
            raise ValueError(f"vertex {v} out of range [1,{g.m}]")
    last = _last  # read once: another thread may replace it
    if last[0] is not g:
        _last = last = (None, None)
        _last = last = (g, trek_network(g))
    return last[1]._replace(cap=list(last[1].cap))


def _search(net: TrekNetwork, A, B):
    """Breadth-first search of the residual network from the left in-nodes of A.

    Returns (via, order, end): via[x] is the arc that first reached node x
    (-1 if unreached, -2 for a left in-node of A), order lists the reached
    nodes and end is the right out-node of B that stopped the search, or -1.
    """
    head, cap, out = net
    ends = {6 * b - 1 for b in B}
    via = [-1] * len(out)
    order = [6 * a - 6 for a in A]
    for x in order:
        via[x] = -2
    for u in order:
        for e in out[u]:
            if cap[e]:
                x = head[e]
                if via[x] == -1:
                    via[x] = e
                    if x in ends:
                        return via, order, x
                    order.append(x)
    return via, order, -1


def min_t_separator(g: MixedGraph, A, B) -> RankResult:
    """Minimum t-separating triple and its size, by max-flow min-cut."""
    A, B = frozenset(A), frozenset(B)
    head, cap, out = net = _network(g, A, B)
    value = 0
    while True:
        via, order, x = _search(net, A, B)
        if x == -1:
            break
        while via[x] != -2:  # every augmenting path carries one unit
            e = via[x]
            cap[e] -= 1
            cap[e ^ 1] += 1
            x = head[e ^ 1]
        value += 1

    cut = sorted(e for u in order for e in out[u]
                 if not e & 1 and via[head[e]] == -1)
    if cut and cut[-1] >= 6 * g.m:
        raise InternalError("minimum cut crosses an arc other than an original split arc")
    levels: Tuple[List[int], ...] = ([], [], [])
    for e in cut:
        levels[e % 6 // 2].append(e // 6 + 1)
    cert = SeparationTriple.of(*levels)
    if cert.size() != value:
        raise InternalError(f"certificate size {cert.size()} differs from flow value {value}")
    return RankResult(rank=value, certificate=cert, flow_value=value)


def generic_rank(g: MixedGraph, A, B) -> int:
    """Generic rank of the covariance submatrix with rows A and columns B."""
    return min_t_separator(g, A, B).rank if A and B else 0


def is_t_separating(g: MixedGraph, A, B, c: SeparationTriple) -> bool:
    """Does deleting c (layer by layer) block every trek from A to B?"""
    for v in sorted(c.c_left | c.c_mid | c.c_right):
        if not 1 <= v <= g.m:
            raise ValueError(f"vertex {v} out of range [1,{g.m}]")
    A, B = frozenset(A), frozenset(B)
    net = _network(g, A, B)
    for level, members in enumerate((c.c_left, c.c_mid, c.c_right)):
        for v in members:
            net.cap[6 * v - 6 + 2 * level] = 0  # the split arc of a deleted node
    return _search(net, A, B)[2] == -1


def _require_dag(g: MixedGraph):
    if graph_class(g) != DAG:
        raise NotADAGError("operation is defined for DAGs only")


def _require_disjoint(A, B, C):
    A, B, C = set(A), set(B), set(C)
    if A & B or A & C or B & C:
        raise ValueError("A, B and C must be pairwise disjoint")


def d_separates(g: MixedGraph, A, B, C) -> bool:
    """Classic d-separation via Bayes-ball reachability.

    Deliberately independent of the t-separation machinery so that the
    equivalence between the two criteria is a real cross-check.
    """
    _require_dag(g)
    _require_disjoint(A, B, C)
    C = set(C)
    anc_c = set()
    stack = list(C)
    while stack:
        v = stack.pop()
        if v in anc_c:
            continue
        anc_c.add(v)
        stack.extend(g.parents[v])

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
            frontier.extend((p, "up") for p in g.parents[v])
            frontier.extend((c, "down") for c in g.children[v])
        elif direction == "down":
            if v not in C:
                reachable.add(v)
                frontier.extend((c, "down") for c in g.children[v])
            if v in anc_c:
                frontier.extend((p, "up") for p in g.parents[v])
    return reachable.isdisjoint(B)


def _dag_pair_t_separates(g: MixedGraph, A, B, c_a, c_b) -> bool:
    """DAG pair view of t-separation: no trek avoids C_A on the left and C_B on the right."""

    def sided_sources(targets, blockers):
        grown = {t for t in targets if t not in blockers}
        stack = list(grown)
        while stack:
            v = stack.pop()
            for p in g.parents[v]:
                if p not in blockers and p not in grown:
                    grown.add(p)
                    stack.append(p)
        return grown

    left = sided_sources(set(A), set(c_a))
    right = sided_sources(set(B), set(c_b))
    return left.isdisjoint(right)


def d_sep_via_t_sep(g: MixedGraph, A, B, C) -> bool:
    """d-separation decided by searching partitions C = C_A | C_B.

    Raises CapExceededError when C has more than 20 vertices, since the
    search visits all 2^|C| partitions.
    """
    _require_dag(g)
    _require_disjoint(A, B, C)
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
        if _dag_pair_t_separates(g, AC, BC, c_a, c_b):
            return True
    return False


def ci_implied(g: MixedGraph, A, B, C) -> bool:
    """Generic conditional independence of X_A and X_B given X_C."""
    return generic_rank(g, set(A) | set(C), set(B) | set(C)) == len(set(C))


@dataclass(frozen=True)
class ChokePoint:
    vertex: int
    side: str  # "left" or "right"


def vanishing_tetrad(g: MixedGraph, ij, kl) -> Optional[ChokePoint]:
    """Choke-point certificate for a vanishing 2x2 minor, or None.

    Returns a vertex c with a side such that ({c}, {}) or ({}, {c})
    t-separates {i,j} from {k,l}; None when the minor is generically
    nonzero (rank 2).  If the two blocks have no treks at all, any vertex
    works and the smallest row vertex is reported.
    """
    _require_dag(g)
    A = frozenset(ij)
    B = frozenset(kl)
    res = min_t_separator(g, A, B)
    if res.rank >= 2:
        return None
    if res.rank == 0:
        return ChokePoint(vertex=min(A), side="left")
    cert = res.certificate
    if cert.c_right:
        return ChokePoint(vertex=min(cert.c_right), side="right")
    c_a = cert.c_left | cert.c_mid
    return ChokePoint(vertex=min(c_a), side="left")
