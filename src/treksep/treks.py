"""Simple treks, trek systems, trek monomials and sided intersections.

A trek between i and j is a triple (left, middle, right): two directed
paths into i and j plus a middle segment joining their sources.  The middle
is trivial (the shared source), an undirected path, or a single bidirected
edge.  Simple treks have self-avoiding segments that overlap only at the
two sources.

One capped backtracking search, `_disjoint_systems`, finds the trek systems
with no sided intersection here and the vertex-disjoint path systems of the
path-determinant expansions in `algebra`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from .graph import MixedGraph, _require_vertices

DEFAULT_CAP = 100_000

MIDDLE_UNDIRECTED = "undirected"
MIDDLE_BIDIRECTED = "bidirected"
_KIND_RANK = {None: 0, MIDDLE_UNDIRECTED: 1, MIDDLE_BIDIRECTED: 2}


class CapExceededError(Exception):
    """Enumeration outgrew its cap; the instance is too large for brute force."""

    def __init__(self, cap: int, message: str = ""):
        self.cap = cap
        super().__init__(message or f"enumeration cap of {cap} exceeded")


@dataclass(frozen=True)
class Trek:
    """One trek; paths are vertex tuples written source -> sink."""

    left: Tuple[int, ...]
    middle_kind: Optional[str]
    middle: Tuple[int, ...]
    right: Tuple[int, ...]

    @property
    def source_left(self) -> int:
        return self.left[0]

    @property
    def source_right(self) -> int:
        return self.right[0]

    @property
    def sink_left(self) -> int:
        return self.left[-1]

    @property
    def sink_right(self) -> int:
        return self.right[-1]


def is_simple(t: Trek) -> bool:
    """Segments self-avoiding and overlapping only at the two sources."""
    for seg in (t.left, t.middle, t.right):
        if len(set(seg)) != len(seg):
            return False
    counts = Counter()
    for seg in (t.left, t.middle, t.right):
        counts.update(set(seg))
    allowed = {t.source_left, t.source_right}
    return all(v in allowed for v, c in counts.items() if c > 1)


def _directed_paths_into(g: MixedGraph, sink: int,
                         cap: Optional[int] = None) -> Dict[int, List[Tuple[int, ...]]]:
    """All self-avoiding directed paths ending at sink, grouped by source.

    With a cap, raises CapExceededError as soon as more than cap are listed.
    """
    out = defaultdict(list)
    stack = [(sink,)]
    listed = 0
    while stack:
        path = stack.pop()
        out[path[0]].append(path)
        listed += 1
        if cap is not None and listed > cap:
            raise CapExceededError(
                cap, f"enumeration cap of {cap} exceeded by the directed paths into {sink}")
        for p in g._parent_lists.get(path[0], ()):
            if p not in path:
                stack.append((p,) + path)
    return dict(out)


def _undirected_middles(g: MixedGraph) -> Dict[Tuple[int, int], List[Tuple[int, ...]]]:
    """Self-avoiding undirected paths with >= 1 edge, keyed by (start, end)."""
    out = defaultdict(list)
    for start in sorted(g.u_set):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            if len(path) > 1:
                out[(start, path[-1])].append(path)
            for n in g._undirected_lists[path[-1]]:
                if n not in path:
                    stack.append(path + (n,))
    return dict(out)


def _trek_sort_key(t: Trek):
    return (t.source_left, t.source_right, _KIND_RANK[t.middle_kind],
            len(t.left), len(t.right), t.left, t.middle, t.right)


def enumerate_simple_treks(g: MixedGraph, i: int, j: int,
                           cap: int = DEFAULT_CAP) -> List[Trek]:
    """All simple treks between i and j, in a canonical deterministic order.

    The directed paths into i are listed first; then each directed path
    into j whose source t meets one of them (t is their source, or is
    joined to their source by a bidirected edge or an undirected middle)
    is listed, and its treks made, before the next.  Paths into j from
    which no such t can be reached upward are never listed.  Raises
    CapExceededError, with a message naming the limit, once there are more
    than `cap` simple treks, more than `cap` directed paths into i, or more
    than `cap` paths into j that meet them, so the work done before the
    error grows with the cap, not with the graph.  Raises ValueError for
    out-of-range endpoints.
    """
    _require_vertices(g, (i, j))
    paths_i = _directed_paths_into(g, i, cap)

    # turns[t]: the middles (kind, segment, source s of the left path) that a
    # right path with source t can close a trek with
    turns = defaultdict(list)
    for s in paths_i:
        turns[s].append((None, (s,), s))
        for t in g._bidirected_lists[s]:
            turns[t].append((MIDDLE_BIDIRECTED, (s, t), s))
    if g.undirected_edges:
        for (s, t), mids in _undirected_middles(g).items():
            if s in paths_i:
                turns[t].extend((MIDDLE_UNDIRECTED, mid, s) for mid in mids)

    reach = set(turns)  # the vertices below a turn: a path into j can climb to one
    stack = list(reach)
    while stack:
        for c in g._child_lists[stack.pop()]:
            if c not in reach:
                reach.add(c)
                stack.append(c)

    treks: List[Trek] = []
    closing = 0
    stack = [(j,)] if j in reach else []
    while stack:
        right = stack.pop()
        if right[0] in turns:
            for kind, middle, s in turns[right[0]]:
                for left in paths_i[s]:
                    trek = Trek(left, kind, middle, right)
                    if is_simple(trek):
                        treks.append(trek)
                        if len(treks) > cap:
                            raise CapExceededError(cap)
            closing += 1
            if closing > cap:
                raise CapExceededError(
                    cap, f"enumeration cap of {cap} exceeded by the directed paths into "
                         f"{j} that meet a path into {i}")
        for p in g._parent_lists.get(right[0], ()):
            if p in reach and p not in right:
                stack.append((p,) + right)

    treks.sort(key=_trek_sort_key)
    return treks


@dataclass(frozen=True)
class Monomial:
    """Product of parameter symbols with integer exponents.

    Symbol keys are ('lambda', i, j), ('phi', i, j) or ('psi', i, j).
    """

    powers: Tuple[Tuple[Tuple, int], ...]
    coefficient: int = 1

    @classmethod
    def from_factors(cls, factors, coefficient=1) -> "Monomial":
        counts = Counter(factors)
        return cls(tuple(sorted(counts.items())), coefficient)

    def __str__(self):
        if not self.powers:
            body = "1"
        else:
            parts = []
            for (name, i, j), exp in self.powers:
                s = f"{name}({i},{j})"
                if exp != 1:
                    s += f"^{exp}"
                parts.append(s)
            body = "*".join(parts)
        if self.coefficient == 1:
            return body
        return f"{self.coefficient}*{body}"


def trek_monomial(g: MixedGraph, t: Trek) -> Monomial:
    """Symbolic covariance contribution of one trek.

    Trivial middles contribute the top's variance symbol phi(top,top);
    bidirected middles a phi covariance; undirected middles one psi factor
    per middle edge (normalization by standard deviations is left to the
    algebraic layer).
    """
    factors = []
    for path in (t.left, t.right):
        for a, b in zip(path, path[1:]):
            factors.append(("lambda", a, b))
    if t.middle_kind is None:
        factors.append(("phi", t.middle[0], t.middle[0]))
    elif t.middle_kind == MIDDLE_BIDIRECTED:
        s, u = sorted(t.middle)
        factors.append(("phi", s, u))
    else:
        for a, b in zip(t.middle, t.middle[1:]):
            lo, hi = (a, b) if a < b else (b, a)
            factors.append(("psi", lo, hi))
    return Monomial.from_factors(factors)


@dataclass(frozen=True)
class TrekSystem:
    """A system of treks joining distinct A-vertices to distinct B-vertices."""

    treks: Tuple[Trek, ...]

    def __post_init__(self):
        a = [t.sink_left for t in self.treks]
        b = [t.sink_right for t in self.treks]
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("trek system endpoints must be pairwise distinct")


def _sided_tokens(t: Trek) -> FrozenSet[Tuple[str, object]]:
    """The (side, vertex) pairs of a trek, side "left", "middle" or "right".

    Two treks have a sided intersection iff their token sets meet.  A
    bidirected middle i <-> j is one latent token, ("middle", (i, j)): it is
    shared only by treks on the same edge and meets no vertex of another
    middle.
    """
    if t.middle_kind == MIDDLE_BIDIRECTED:
        middle = {("middle", tuple(sorted(t.middle)))}
    else:
        middle = {("middle", v) for v in t.middle}
    return frozenset(middle | {("left", v) for v in t.left}
                     | {("right", v) for v in t.right})


def has_sided_intersection(sys: TrekSystem) -> bool:
    """Two treks sharing a vertex on the same side (left, middle or right)."""
    tokens = [_sided_tokens(t) for t in sys.treks]
    return any(a & b for a, b in combinations(tokens, 2))


def _disjoint_systems(row_sets, cols, options, cap: int):
    """Each system joining the rows of a row set to distinct columns by options
    with pairwise disjoint tokens, as a tuple of (col, item), one per row.

    Row by row, a row takes a free column, in the order of cols, then one of
    options[(row, col)], a list of (item, tokens).  Each option tried costs
    one unit of `cap`, shared by all row sets, before its tokens are tested;
    CapExceededError is raised once the budget is spent.
    """
    budget = cap

    def extend(rows, chosen, free, used):
        nonlocal budget
        if len(chosen) == len(rows):
            yield chosen
            return
        row = rows[len(chosen)]
        for col in free:
            for item, tokens in options[(row, col)]:
                budget -= 1
                if budget < 0:
                    raise CapExceededError(cap)
                if not tokens & used:
                    yield from extend(rows, chosen + ((col, item),),
                                      [c for c in free if c != col], used | tokens)

    for rows in row_sets:
        yield from extend(rows, (), list(cols), frozenset())


def exists_noncrossing_system(g: MixedGraph, A, B, r: int,
                              cap: int = DEFAULT_CAP) -> bool:
    """Brute-force search for r treks from A to B with no sided intersection."""
    A = sorted(set(A))
    B = sorted(set(B))
    if r < 1:
        raise ValueError("r must be positive")
    if r > min(len(A), len(B)):
        raise ValueError("r exceeds min(#A, #B)")
    options = {(a, b): [(t, _sided_tokens(t))
                        for t in enumerate_simple_treks(g, a, b, cap)]
               for a in A for b in B}
    systems = _disjoint_systems(combinations(A, r), B, options, cap)
    return next(systems, None) is not None
