"""t-separation, minimum separators via vertex min-cut, and CI queries.

The workhorse is the three-layer trek network of a graph, read off the
graph's adjacency and never built as arcs with capacities.  Each vertex v
has a left level (the directed path into A, walked against the edge
directions), a middle level (undirected travel) and a right level (the
directed path into B), and each level is split into an in-node and an
out-node joined by a split arc of capacity 1.  Nodes are ints: level l of
v (left 0, middle 1, right 2) has in-node 2*(3*(v-1)+l) and out-node one
more, 6m nodes in all.  Split arc e is in-node e.  The other arcs leave an
out-node, and `_search` lists them per out-node, as the in-nodes they enter,
each once: from the left out-node of v the middle in-node of v (a trek
turns at its top vertex), the left in-nodes of the parents (up) and, if v
has a bidirected edge, the right in-nodes of v and of its bidirected
neighbours (over); from the middle out-node the right in-node of v and the
middle in-nodes of the undirected neighbours (across); from the right
out-node the right in-nodes of the children (down).  The parent, child,
undirected and bidirected lists are the graph's own adjacency index (see
`graph`).  `_trek_steps` writes the steps between (vertex, level) states
that the arcs spell once more, from the graph's edge sets and never the
index.  `is_t_separating` searches them (`_t_separates`), with no flow,
and so does the Menger check (`verify._menger_ok`), which thus shares no
code with `_search` or the index: a wrong index entry fails it.

A bidirected edge i <-> j, a latent common parent of i and j, is the
middle of the treks whose left path climbs to i or j and whose right path
starts at i or j, hence the arcs i -> i and j -> j of over: a trek
i <- (latent) -> i does not pass the middle level of i.

The network has no source or sink: paths from a left in-node of A to a
right out-node of B are the treks from A to B, and unit split capacities
turn minimum blocking sets into minimum cuts (Menger).  The other arcs are
never saturated, so each augmenting path carries one unit.  One
breadth-first search from all of A augments several: every end it reaches
(a right out-node of B) leads back through `via` to one seed (a left
in-node of A), and it keeps the ends whose seeds differ.  Each node has
one `via`, so paths from distinct seeds share no node, and augmenting one
path changes the flow only at its own in-nodes: the others stay
augmenting.  A search stops once it keeps min(|A|, |B|) minus the flow
value ends, as no more can be augmented, so a query of rank r runs at
most r + 1 searches and as few as 2 (Ford-Fulkerson with a cheap blocking
step: no level graph, no depth-first search).  An in-node's only arc out
is its split arc, so it carries at most one unit, which came in by one
arc, and the whole flow is one int per in-node, `prv[e // 2]` for in-node
e:

  -1      no unit: the split arc is free;
  p >= 0  the unit came from out-node p, and the only residual arc goes
          back to p;
  -2      the unit comes from a source: a seed of A, or a trivial trek.

An out-node always has its forward arcs, and its split arc back only while
its in-node carries a unit.  An out-node whose split arc is free has no
other way in, since no unit leaves it, so a search marks a free in-node
with its out-node and queues only the out-node.  The last search runs
from a maximum flow to its end.  The certificate is the set of split arcs
leaving what it reaches, that is the reached in-nodes whose out-node is
not reached, all of which carry a unit and were queued: the unique minimal
source-side minimum cut, whichever paths were augmented, and so in
whatever order the arcs are listed.  Read back through `prv` from the
right in-nodes of B, the flow spells the witness: one trek per unit, no
two sharing a (vertex, level).

A query keeps one `via`, one `prv` and one store of arc entries, a plain
dict from k to the entry of out-node 2k+1, for all its searches.  The
arcs depend on the graph alone.  `_search` lists an out-node's entry
from the index the first time it dequeues that out-node, and keeps it in
the store, so a query on a large graph lists only the few out-nodes it
reaches; once listed, an entry never changes.  Criterion 8, which runs
one CI search per (A, C) pair of a graph, lists that graph's arcs into
one store and hands it to every search (`verify._dsep_pairs`).  A search
sets `via` only at the in-node and out-node of each node it queues and of
each end it reaches, so after augmenting, `min_t_separator` resets just
those and the next search starts from the blank `via` again.  `prv` is
written only by the augmentations, so the check that as many in-nodes are
fed by a source as the flow value counts -2 over the in-nodes they wrote.
Beyond `_blank` and `prv`, made once per query, no search touches a
whole-graph list.

A trek ends in a directed path down into B, so its right half lies in
an(B), the ancestors of B; `_blank` finds an(B) with `graph._closure`,
which climbs the graph's parent lists from B.  The right levels of the
other vertices are dead ends: their arcs lead only down to the right
levels of children, outside an(B) again, so no path from them reaches B,
no unit of flow ever enters them and none of their residual arcs goes
back.  A query with B therefore makes, once, a blank `via` in which the
right in-node of every vertex outside an(B) is -3, a node never to enter,
and every search starts from it.  No live node is first reached from a
pruned one, so the live nodes get the same `via`, the same augmenting
paths and the same cut as with no pruning.  `_ci_reached` has no B and
needs its full reach: it prunes nothing.

A CI query X_A _||_ X_B | X_C holds generically iff rank Sigma_{A+C, B+C}
= |C|, and that rank is at least |C|: the trivial treks c - c, one per c
in C, share no node.  `ci_implied` pushes them straight into its `prv`,
the left in-node of c fed by a source and the middle and right ones by the
out-node below, and runs one search.  By Ford-Fulkerson this flow of |C|
units is maximum iff no augmenting path is left, so the query is decided
without a full min-cut and no certificate is built.  That search needs B
only at its ends: the right out-node of c in C is never reached, since its
right in-node carries a unit and no unit came from that out-node, so the
ends B+C reduce to B.  `_ci_reached` runs the search from A+C to its end,
with no end to stop it, and gives the vertices whose right out-node it
queued; CI holds iff they miss B.

The two d-separation deciders, Bayes-ball (`d_separates`) and the search
over partitions C = C_A | C_B (`d_sep_via_t_sep`), work on int masks of
vertices (bit v for vertex v) read from the graph's parent and child
masks.  Neither calls the other or the network code, so criterion 8's
three-way comparison stays a real cross-check.  Each does most of its work
from (A, C) alone, and B enters only a last test.  `_bayes_ball` gives the
vertices the ball visits, d-separated iff they miss B; each round is two
`_spread` unions, the parents of the vertices reached going up outside C
or coming down into C, and the children of the vertices outside C reached
either way.  `_partition_reaches` gives, for every partition C = C_A |
C_B, the vertices that reach the left closure of A+C around C_A going up
around C_B (one upward and one downward closure), and `_partition_masks`
drops the partitions whose C_A meets that mask; `_some_partition_separates`
answers each B with one AND per partition left: B+C is t-separated iff B
misses a mask.  Each public decider is its input checks and then those
parts, and `d_sep_via_t_sep` computes every closure afresh with
`_closed_up`: within one (A, C) no closure repeats.  Criterion 8 computes
the (A, C) parts once per pair (`verify._dsep_pairs`) and checks all the
pair's Bs with three mask tests (`verify._pair_agrees`); a pair that fails
them runs its own per-B tests (`verify._pair_verdicts`).  It runs the
deciders' parts on one-vertex A only.  Each part is a reachability from A,
and a reachability from a set is the union of those from its members, so
A = {a1, a2} takes, exactly, the OR of the parts of its two vertices: the
visited sets, the CI reaches, and each partition's reaches before the
drop.  Seeding the public deciders with several vertices is therefore
checked by the Tier-1 tests, not by criterion 8.  Its partition searches
share one `functools.cache` of `_closed_up` per direction and graph, keyed
(start, blocked): pairs with one A+C share their upward closures, and
pairs whose left closures agree their downward ones.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .graph import DAG, MixedGraph, _closure, _require_vertices, graph_class
from .treks import CapExceededError


class NotADAGError(Exception):
    """Operation requires a purely directed acyclic graph."""


class InternalError(RuntimeError):
    """A max-flow invariant failed: a bug in this module, not bad input."""


class SeparationTriple(namedtuple("SeparationTriple", "c_left c_mid c_right",
                                  defaults=(frozenset(),) * 3)):
    __slots__ = ()
    c_left: frozenset[int]
    c_mid: frozenset[int]
    c_right: frozenset[int]

    @classmethod
    def of(cls, cl=(), cm=(), cr=()) -> "SeparationTriple":
        return cls(frozenset(cl), frozenset(cm), frozenset(cr))

    def size(self) -> int:
        return len(self.c_left) + len(self.c_mid) + len(self.c_right)

    def as_dict(self) -> dict[str, list[int]]:
        """The members of each level, sorted, as `rank --output json` prints them."""
        return {"cl": sorted(self.c_left), "cm": sorted(self.c_mid), "cr": sorted(self.c_right)}

    def dag_pair_view(self) -> tuple[frozenset[int], frozenset[int]]:
        """(C_A, C_B) with the middle layer folded into the left side."""
        return (self.c_left | self.c_mid, self.c_right)


class RankResult(namedtuple("RankResult", "rank certificate flow_value treks", defaults=((),))):
    """A rank, a separating triple and a trek system of that size.

    treks: one path per unit of flow, as (vertex, level) states (0 left, 1
    middle, 2 right) from a left state of A to a right state of B.  Results
    compare and hash without it, as it depends on the search order.
    """

    __slots__ = ()
    rank: int
    certificate: SeparationTriple
    flow_value: int
    treks: tuple[tuple[tuple[int, int], ...], ...]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] != other[:3]

    def __hash__(self):
        return hash(self[:3])


def _blank(g: MixedGraph, B):
    """The `via` of a search towards B that has reached nothing yet.

    It is -1 everywhere but at the right in-nodes of the vertices outside
    an(B), which hold -3 so that no search enters them (module doc).  an(B)
    is the closure of B in the parent lists of g.
    """
    via = [-1, -1, -1, -1, -3, -1] * g.m
    for v in _closure(B, g._parent_lists.get):  # 6v - 2 is the right in-node of v
        via[6 * v - 2] = -1
    return via


def _search(arcs, g: MixedGraph, prv, via, A, B, want):
    """Breadth-first search of the residual network from the left in-nodes of A.

    arcs holds the arc entries of g listed so far, prv the flow and via the
    `via` to start from, which the search fills in (module doc): via[x] is
    the node that first reached node x (-1 if unreached, -2 for a left
    in-node of A, -3 for a node never to enter).  Returns (order, ends,
    reached): order lists the reached nodes that were queued, ends lists
    augmenting paths with distinct seeds, by the right out-node of B each
    ends at, and reached lists every end reached, kept or not.  The search
    sets via only at the in-node and out-node of each node of order and of
    reached.

    A free in-node is marked with its out-node, and only the out-node is
    queued.  An out-node missing from arcs gets its entry listed from g's
    adjacency index when it is dequeued, level step first.  Entries are
    tuples of ints, which the garbage collector stops tracking the first
    time it sees them, so kept entries add nothing to later collections.
    A reached end is not queued; it is kept unless a kept end traces back
    through `via` to the same seed.  The search returns once the out-node
    that reached the `want`-th kept end has listed its arcs, or when its
    queue empties.
    """
    parents, children = g._parent_lists.get, g._child_lists
    undirected, bidirected = g._undirected_lists, g._bidirected_lists
    ends = {6 * b - 1 for b in B}
    seeds, found, reached = set(), [], []
    order = [6 * a - 6 for a in A]
    for u in order:
        via[u] = -2
    for u in order:
        unit = prv[u >> 1]
        if u & 1:  # an out-node: its arcs, and its split arc back if its in-node
            # carries a unit
            if unit != -1 and via[u - 1] == -1:
                via[u - 1] = u
                order.append(u - 1)
            k = u >> 1
            entry = arcs.get(k)
            if entry is None:  # dequeued for the first time: list its entry
                v = k // 3 + 1
                level = k % 3
                if level == 0:  # to the middle of v, up to the parents, over to the right
                    entry = (6 * v - 4, *[6 * p - 6 for p in parents(v, ())])
                    over = bidirected[v]
                    if over:
                        entry += (6 * v - 2, *[6 * j - 2 for j in over])
                elif level == 1:  # to the right of v, across to the undirected neighbours
                    entry = (6 * v - 2, *[6 * j - 4 for j in undirected[v]])
                else:  # down to the children
                    entry = tuple([6 * c - 2 for c in children[v]])
                arcs[k] = entry
            full = False
            for x in entry:
                if via[x] == -1:
                    via[x] = u
                    if prv[x >> 1] != -1:  # it carries a unit: queue the in-node
                        order.append(x)
                        continue
                    via[x + 1] = x  # a free split arc: on to its out-node
                    if x + 1 not in ends:
                        order.append(x + 1)
                        continue
                    reached.append(x + 1)
                    s = u
                    while via[s] >= 0:  # back to the seed
                        s = via[s]
                    if s not in seeds:
                        seeds.add(s)
                        found.append(x + 1)
                        full = len(found) == want
            if full:
                return order, found, reached
            continue
        # an in-node (a seed, or one carrying a unit): its free split arc, or
        # back to where its unit came from
        x = u + 1 if unit == -1 else unit
        if x >= 0 and via[x] == -1:
            via[x] = u
            order.append(x)
    return order, found, reached


def min_t_separator(g: MixedGraph, A, B) -> RankResult:
    """Minimum t-separating triple and its size, by max-flow min-cut."""
    A, B = frozenset(A), frozenset(B)
    if not A or not B:
        raise ValueError("A and B must be nonempty")
    _require_vertices(g, sorted(A | B))
    arcs, prv, via = {}, [-1] * (3 * g.m), _blank(g, B)
    most = min(len(A), len(B))  # the seeds, and the ends, bound the flow
    value = 0
    wrote = set()  # the in-nodes whose unit an augmentation set
    while True:
        order, ends, reached = _search(arcs, g, prv, via, A, B, most - value)
        if not ends:
            break
        for x in ends:  # every augmenting path carries one unit
            while x != -2:
                u = via[x]
                if not x & 1:
                    prv[x >> 1] = -1 if u == x + 1 else u
                    wrote.add(x >> 1)
                x = u
        value += len(ends)
        for x in order + reached:  # back to the blank via
            via[x & -2] = via[x | 1] = -1

    fed = [prv[k] for k in wrote].count(-2)
    if fed != value:
        raise InternalError(f"{fed} in-nodes are fed by a source, but the flow value is {value}")
    levels: tuple[list[int], ...] = ([], [], [])
    for x in order:  # the cut: split arcs from a reached in-node to an unreached out-node
        if not x & 1 and via[x + 1] == -1:
            levels[x % 6 // 2].append(x // 6 + 1)
    cert = SeparationTriple.of(*levels)
    if cert.size() != value:
        raise InternalError(f"certificate size {cert.size()} differs from flow value {value}")
    treks = []
    for x in sorted(6 * b - 2 for b in B if prv[3 * b - 1] != -1):  # each unit, back to its seed
        trek = [(x // 6 + 1, 2)]
        while prv[x >> 1] != -2:
            x = prv[x >> 1] - 1  # the in-node of the out-node the unit came from
            trek.append((x // 6 + 1, x % 6 // 2))
        treks.append(tuple(trek[::-1]))
    return RankResult(rank=value, certificate=cert, flow_value=value, treks=tuple(treks))


def generic_rank(g: MixedGraph, A, B) -> int:
    """Generic rank of the covariance submatrix with rows A and columns B."""
    A, B = frozenset(A), frozenset(B)
    if A and B:
        return min_t_separator(g, A, B).rank
    _require_vertices(g, sorted(A | B))
    return 0


def _trek_steps(g: MixedGraph) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Each (vertex, level) state of g -> the states a trek may step to: the
    steps that the arcs spell, read off g's edge sets (module doc)."""
    steps = {}
    for v in g.vertices:
        steps[v, 0], steps[v, 1], steps[v, 2] = {(v, 1)}, {(v, 2)}, set()
    for p, c in g.directed_edges:
        steps[c, 0].add((p, 0))
        steps[p, 2].add((c, 2))
    for i, j in g.undirected_edges:
        steps[i, 1].add((j, 1))
        steps[j, 1].add((i, 1))
    for i, j in g.bidirected_edges:
        steps[i, 0].update(((i, 2), (j, 2)))
        steps[j, 0].update(((j, 2), (i, 2)))
    return steps


def is_t_separating(g: MixedGraph, A, B, c: SeparationTriple) -> bool:
    """Does deleting c (layer by layer) block every trek from A to B?"""
    _require_vertices(g, sorted(c.c_left | c.c_mid | c.c_right))
    A, B = frozenset(A), frozenset(B)
    if not A or not B:
        raise ValueError("A and B must be nonempty")
    _require_vertices(g, sorted(A | B))
    return _t_separates(_trek_steps(g), A, B, c)


def _t_separates(steps, A, B, c: SeparationTriple) -> bool:
    """A search of steps, from `_trek_steps`, from the left states of A,
    entering none of c: True iff it reaches no right state of B."""
    seen = {(v, level) for level, vs in enumerate((c.c_left, c.c_mid, c.c_right)) for v in vs}
    todo = [(a, 0) for a in A]
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        if state[1] == 2 and state[0] in B:
            return False
        seen.add(state)
        todo += steps[state]
    return True


def _mask(vertices) -> int:
    """The int mask of a vertex set: bit v for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _require_dsep_query(g: MixedGraph, A, B, C):
    if graph_class(g) != DAG:
        raise NotADAGError("operation is defined for DAGs only")
    _require_vertices(g, sorted({*A, *B, *C}))
    A, B, C = set(A), set(B), set(C)
    if A & B or A & C or B & C:
        raise ValueError("A, B and C must be pairwise disjoint")


def _spread(table, mask) -> int:
    """The union of table[v] over the bits v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _bayes_ball(g: MixedGraph, a: int, c_set: int) -> int:
    """The mask of the vertices a ball from A visits given C (Bayes-ball).

    a and c_set are the masks of A and C.  Sets are int masks, visited a
    whole frontier at a time.  A vertex set B disjoint from A and C is
    d-separated from A given C iff the mask misses B.
    """
    pmask, cmask = g.parent_mask, g.child_mask
    # the ball leaves a vertex outside C upward to its parents and downward
    # to its children, passes a vertex outside C downward, and bounces from
    # down to up at a vertex of C (Shachter): a ball passing down through an
    # ancestor of C reaches C, bounces, and climbs back up through it
    up = new_up = a
    down = new_down = 0
    while new_up or new_down:
        next_up = _spread(pmask, new_up & ~c_set | new_down & c_set)
        next_down = _spread(cmask, (new_up | new_down) & ~c_set)
        new_up = next_up & ~up
        new_down = next_down & ~down
        up |= new_up
        down |= new_down
    return up | down


def d_separates(g: MixedGraph, A, B, C) -> bool:
    """Classic d-separation via Bayes-ball reachability.

    Deliberately independent of the t-separation machinery so that the
    equivalence between the two criteria is a real cross-check.
    """
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    _require_dsep_query(g, A, B, C)
    return not _bayes_ball(g, _mask(A), _mask(C)) & _mask(B)


def _closed_up(masks, start, blocked) -> int:
    """The mask start reaches going up through a graph's parent masks
    without entering blocked; given the child masks, it goes down.

    Grows a frontier at a time.
    """
    grown = frontier = start & ~blocked
    while frontier:
        frontier = _spread(masks, frontier) & ~blocked & ~grown
        grown |= frontier
    return grown


def _partition_reaches(g: MixedGraph, a: int, c_all: int, closed) -> list[tuple[int, int]]:
    """(C_A, mask) for every partition C = C_A | C_B, by increasing C_A,
    where mask holds the vertices that reach the partition's left closure
    going up around C_B.

    A trek avoids C_A on the left and C_B on the right, so the partition
    t-separates A+C from B+C iff the right closure, grown from B+C upward
    around C_B, misses the left closure, grown from A+C upward around C_A.
    The right closure meets it iff some vertex of B + C_A reaches it going
    up around C_B, that is lies in the mask, the left closure's downward
    closure around C_B.  a and c_all are the masks of A and C.  closed maps
    a table of g, its parent or child masks, to `_closed_up` on that table
    as a function of (start, blocked), or to a cache of it.  Both closures
    are reachabilities, so each mask of A is the OR of its vertices' masks
    of the same partition; `_partition_masks` makes the drop.
    """
    up, down = closed(g.parent_mask), closed(g.child_mask)
    ac = a | c_all
    out = []
    c_a = 0
    while True:
        out.append((c_a, down(up(ac, c_a), c_all ^ c_a)))
        c_a = (c_a - c_all) & c_all
        if not c_a:
            return out


def _partition_masks(reaches) -> list[int]:
    """The masks of `_partition_reaches` whose partitions can separate.

    A partition whose C_A meets its mask separates no B and is dropped.
    """
    return [mask for c_a, mask in reaches if not c_a & mask]


def _some_partition_separates(masks, b) -> bool:
    """Does some partition of C t-separate A+C from B+C in the DAG pair view?

    masks comes from `_partition_masks` and b is the mask of B: a partition
    separates iff B misses its mask.
    """
    return any(not b & mask for mask in masks)


def d_sep_via_t_sep(g: MixedGraph, A, B, C) -> bool:
    """d-separation decided by searching partitions C = C_A | C_B.

    Raises CapExceededError when C has more than 20 vertices, since the
    search visits all 2^|C| partitions.
    """
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    _require_dsep_query(g, A, B, C)
    if len(C) > 20:
        raise CapExceededError(
            20, f"partition search over {len(C)} conditioning vertices "
                "exceeds the cap of 20")
    reaches = _partition_reaches(g, _mask(A), _mask(C), lambda table: partial(_closed_up, table))
    return _some_partition_separates(_partition_masks(reaches), _mask(B))


def _ci_reached(arcs, g: MixedGraph, AC, C) -> int:
    """The mask of the vertices whose right out-node the CI search from A+C reaches.

    arcs is a store of g's arc entries (module doc); the caller checks that
    A+C is a nonempty set of vertices of g.  The |C| trivial treks c - c are pushed first, and one
    full search runs, stopped by no end.  The right out-node of c in C is
    never reached, as its right in-node carries a unit, so CI holds iff the
    mask misses B.
    """
    prv = [-1] * (3 * g.m)
    for c in C:  # c - c: a source feeds the left level of c, each level the next
        prv[3 * c - 3] = -2
        prv[3 * c - 2] = 6 * c - 5
        prv[3 * c - 1] = 6 * c - 3
    out = 0
    for x in _search(arcs, g, prv, [-1] * (6 * g.m), AC, (), 0)[0]:
        if x % 6 == 5:  # a right out-node: with no end to stop it, each one reached is queued
            out |= 1 << (x // 6 + 1)
    return out


def ci_implied(g: MixedGraph, A, B, C) -> bool:
    """Generic conditional independence of X_A and X_B given X_C.

    True iff rank Sigma_{A+C, B+C} = |C|, decided by one residual search
    after pushing the |C| trivial treks c - c (see the module doc).
    """
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    AC, BC = A | C, B | C
    _require_vertices(g, sorted(AC | BC))
    if not AC or not BC:
        return True  # C is empty as well: rank 0 = |C|
    return not _ci_reached({}, g, AC, C) & _mask(B)


def vanishing_tetrad(g: MixedGraph, ij, kl) -> SeparationTriple | None:
    """Certificate for a vanishing 2x2 minor of Sigma, or None.

    Returns the minimum t-separating triple of `min_t_separator`, of size at
    most 1, when rank Sigma_{ij,kl} < 2, and None when the minor is
    generically nonzero (rank 2).  Raises ValueError unless ij and kl are
    two distinct vertices each.
    """
    ij, kl = tuple(ij), tuple(kl)
    if not len(ij) == len(set(ij)) == len(kl) == len(set(kl)) == 2:
        raise ValueError("a tetrad needs two distinct rows and two distinct columns")
    res = min_t_separator(g, ij, kl)
    return res.certificate if res.rank < 2 else None
