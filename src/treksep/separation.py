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

A CI query X_A _||_ X_B | X_C holds generically iff rank Sigma_{A+C, B+C}
= |C|, and that rank is at least |C|: the trivial treks c - c, one per c
in C, share no node.  `ci_implied` pushes them straight into its copy of
`cap`, five arcs each (the left, middle and right split arcs of c and the
two links between them), and runs one search.  By Ford-Fulkerson this
flow of |C| units is maximum iff no augmenting path is left, so the query
is decided without a full min-cut and no certificate is built.

The two d-separation deciders, Bayes-ball (`d_separates`) and the search
over partitions C = C_A | C_B (`d_sep_via_t_sep`), work on int masks of
vertices (bit v for vertex v) read from the graph's parent and child
masks.  Neither calls the other or the network code, so criterion 8's
three-way comparison stays a real cross-check.
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
    head, cap, out = last[1]
    return TrekNetwork(head, list(cap), out)


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


def _mask(vertices) -> int:
    """The int mask of a vertex set: bit v for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def d_separates(g: MixedGraph, A, B, C) -> bool:
    """Classic d-separation via Bayes-ball reachability.

    Deliberately independent of the t-separation machinery so that the
    equivalence between the two criteria is a real cross-check.  Vertex
    sets are int masks, visited a whole frontier at a time.
    """
    _require_dag(g)
    _require_disjoint(A, B, C)
    pmask, cmask = g.parent_mask, g.child_mask
    c_set, b_set = _mask(C), _mask(B)
    anc_c = frontier = c_set
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= pmask[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~anc_c
        anc_c |= frontier

    # the ball leaves a vertex outside C upward to its parents and downward
    # to its children, passes a vertex outside C downward, and bounces from
    # down to up at a vertex with a descendant in C
    up = new_up = _mask(A)
    down = new_down = 0
    while new_up or new_down:
        if (new_up | new_down) & b_set:
            return False
        next_up = next_down = 0
        frontier = new_up & ~c_set
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            next_up |= pmask[v]
            next_down |= cmask[v]
            frontier ^= low
        frontier = new_down & ~c_set
        while frontier:
            low = frontier & -frontier
            next_down |= cmask[low.bit_length() - 1]
            frontier ^= low
        frontier = new_down & anc_c
        while frontier:
            low = frontier & -frontier
            next_up |= pmask[low.bit_length() - 1]
            frontier ^= low
        new_up = next_up & ~up
        new_down = next_down & ~down
        up |= new_up
        down |= new_down
    return True


def _dag_pair_t_separates(pmask, ac, bc, c_a, c_b) -> bool:
    """DAG pair view of t-separation: no trek avoids C_A on the left and C_B on the right.

    The sets are int masks and pmask[v] is the parent mask of v.  Each side
    is closed upward around its blocked vertices, a frontier at a time: the
    left one from A+C around C_A, then the right one from B+C around C_B,
    which stops as soon as it meets the left one.
    """
    left = 0
    for targets, blocked in ((ac, c_a), (bc, c_b)):
        grown = frontier = targets & ~blocked
        while frontier:
            if frontier & left:
                return False
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= pmask[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~blocked & ~grown
            grown |= frontier
        left = grown
    return True


def d_sep_via_t_sep(g: MixedGraph, A, B, C) -> bool:
    """d-separation decided by searching partitions C = C_A | C_B.

    Raises CapExceededError when C has more than 20 vertices, since the
    search visits all 2^|C| partitions.
    """
    _require_dag(g)
    _require_disjoint(A, B, C)
    C = set(C)
    if len(C) > 20:
        raise CapExceededError(
            20, f"partition search over {len(C)} conditioning vertices "
                "exceeds the cap of 20")
    c_all = _mask(C)
    ac, bc = _mask(A) | c_all, _mask(B) | c_all
    pmask = g.parent_mask
    c_a = 0
    while True:  # every C_A within C, in increasing order of its mask
        if _dag_pair_t_separates(pmask, ac, bc, c_a, c_all ^ c_a):
            return True
        c_a = (c_a - c_all) & c_all
        if not c_a:
            return False


def ci_implied(g: MixedGraph, A, B, C) -> bool:
    """Generic conditional independence of X_A and X_B given X_C.

    True iff rank Sigma_{A+C, B+C} = |C|, decided by one residual search
    after pushing the |C| trivial treks c - c (see the module doc).
    """
    C = frozenset(C)
    AC, BC = frozenset(A) | C, frozenset(B) | C
    if not AC or not BC:
        return True  # C is empty as well: rank 0 = |C|
    net = _network(g, AC, BC)
    m, cap = g.m, net.cap
    for c in C:
        for e in (6 * c - 6, 2 * (3 * m + c - 1), 6 * c - 4, 2 * (4 * m + c - 1), 6 * c - 2):
            cap[e] -= 1
            cap[e ^ 1] += 1
    return _search(net, AC, BC)[2] == -1


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
