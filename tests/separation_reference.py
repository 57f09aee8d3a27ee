"""The explicit trek network that the graph-adjacency search replaced.

`trek_network`, `_network`, `_search`, `min_t_separator`,
`is_t_separating` and `ci_implied` as they stood before the search ran on
the graph's adjacency lists, copied verbatim apart from the `_reference`
suffix, so that the differential tests compare the library against code it
shares nothing with but the result types.  `leaves_no_trek_reference` and
`forward_arcs_reference`, added since, run that network's search on what
is left of it once given paths are deleted, and read its arcs per
out-node.  Nodes keep the numbering the library used when this code was
copied, vertex by vertex: level l of vertex v (left 0, middle 1, right 2)
has in-node 2*(3*(v-1)+l) and out-node one more.  The library now numbers its nodes level by level;
`library_state` and `library_node`, written from the layout its module doc
gives, translate its node ids into (vertex, level, side) states and back,
so that tests can set the two side by side.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from treksep.graph import MixedGraph
from treksep.separation import InternalError, RankResult, SeparationTriple


class TrekNetwork(NamedTuple):
    """The trek network of one graph; node numbering in the module doc."""

    head: List[int]       # node that arc e enters; arc e ^ 1 is its reverse
    cap: List[int]        # residual capacity of arc e
    out: List[List[int]]  # arcs leaving node u, reverse arcs included


def trek_network_reference(g: MixedGraph) -> TrekNetwork:
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


def _network_reference(g: MixedGraph, A, B) -> TrekNetwork:
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
        _last = last = (g, trek_network_reference(g))
    head, cap, out = last[1]
    return TrekNetwork(head, list(cap), out)


def _search_reference(net: TrekNetwork, A, B):
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


def min_t_separator_reference(g: MixedGraph, A, B) -> RankResult:
    """Minimum t-separating triple and its size, by max-flow min-cut."""
    A, B = frozenset(A), frozenset(B)
    head, cap, out = net = _network_reference(g, A, B)
    value = 0
    while True:
        via, order, x = _search_reference(net, A, B)
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


def is_t_separating_reference(g: MixedGraph, A, B, c: SeparationTriple) -> bool:
    """Does deleting c (layer by layer) block every trek from A to B?"""
    for v in sorted(c.c_left | c.c_mid | c.c_right):
        if not 1 <= v <= g.m:
            raise ValueError(f"vertex {v} out of range [1,{g.m}]")
    A, B = frozenset(A), frozenset(B)
    net = _network_reference(g, A, B)
    for level, members in enumerate((c.c_left, c.c_mid, c.c_right)):
        for v in members:
            net.cap[6 * v - 6 + 2 * level] = 0  # the split arc of a deleted node
    return _search_reference(net, A, B)[2] == -1


def ci_implied_reference(g: MixedGraph, A, B, C) -> bool:
    """Generic conditional independence of X_A and X_B given X_C.

    True iff rank Sigma_{A+C, B+C} = |C|, decided by one residual search
    after pushing the |C| trivial treks c - c (see the module doc).
    """
    C = frozenset(C)
    AC, BC = frozenset(A) | C, frozenset(B) | C
    if not AC or not BC:
        return True  # C is empty as well: rank 0 = |C|
    net = _network_reference(g, AC, BC)
    m, cap = g.m, net.cap
    for c in C:
        for e in (6 * c - 6, 2 * (3 * m + c - 1), 6 * c - 4, 2 * (4 * m + c - 1), 6 * c - 2):
            cap[e] -= 1
            cap[e ^ 1] += 1
    return _search_reference(net, AC, BC)[2] == -1



def leaves_no_trek_reference(g: MixedGraph, A, B, treks) -> bool:
    """Once the states of treks are deleted, does no trek run from a vertex of
    A whose left state they leave to a vertex of B whose right state they
    leave?

    treks are node-disjoint paths of (vertex, level) states, level 0 left, 1
    middle and 2 right; True says that no path could be added to them.
    """
    used = {state for trek in treks for state in trek}
    A = frozenset(a for a in A if (a, 0) not in used)
    B = frozenset(b for b in B if (b, 2) not in used)
    if not A or not B:
        return True
    levels: Tuple[List[int], ...] = ([], [], [])
    for v, level in used:
        levels[level].append(v)
    return is_t_separating_reference(g, A, B, SeparationTriple.of(*levels))


def forward_arcs_reference(g: MixedGraph) -> List[List[int]]:
    """Entry k: the in-nodes that the forward arcs of out-node 2k+1 enter in g's network."""
    head, _, out = trek_network_reference(g)
    return [[head[e] for e in out[2 * k + 1] if not e & 1] for k in range(3 * g.m)]


def library_state(m: int, x: int) -> Tuple[int, int, int]:
    """(vertex, level, side) of node x of the library's network on m vertices.

    level is 0 left, 1 middle, 2 right, and side 0 in, 1 out.  With
    M = m + 1 the library's middle in-node of v is v, its left in-node
    M + v and its right in-node 2M + v, and each out-node is its in-node
    + 3M.
    """
    M = m + 1
    side, rest = divmod(x, 3 * M)
    block, v = divmod(rest, M)
    return v, (1, 0, 2)[block], side


def library_node(m: int, v: int, level: int, side: int) -> int:
    """The library's node id of a (vertex, level, side) state: `library_state` inverted."""
    M = m + 1
    return 3 * M * side + M * (1, 0, 2)[level] + v


def reference_node(m: int, x: int) -> int:
    """The library's node x, numbered as in this module."""
    v, level, side = library_state(m, x)
    return 2 * (3 * (v - 1) + level) + side
