"""Simple treks and trek monomials.

A trek between i and j is a triple (left, middle, right): two directed
paths into i and j plus a middle segment joining their sources.  The middle
is trivial (the shared source), an undirected path, or a single bidirected
edge.  Simple treks have self-avoiding segments that overlap only at the
two sources.

Trek systems are not listed here.  `separation.min_t_separator` returns a
largest one with its minimum separator, each trek as (vertex, level)
states, and `verify` checks that no (vertex, level) lies on two of them.
Two such treks may cross the same bidirected edge, one from each end, as
its latent top is no vertex of the graph.  `_disjoint_systems` is the
capped backtracking search for the vertex-disjoint path systems of the
path-determinant expansions in `algebra`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


def _undirected_middles(g: MixedGraph, starts, cap: Optional[int] = None
                        ) -> Dict[Tuple[int, int], List[Tuple[int, ...]]]:
    """Self-avoiding undirected paths with >= 1 edge from the starts in U, keyed by (start, end).

    With a cap, raises CapExceededError as soon as more than cap are listed.
    """
    out = defaultdict(list)
    listed = 0
    for start in sorted(g.u_set.intersection(starts)):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            if len(path) > 1:
                out[(start, path[-1])].append(path)
                listed += 1
                if cap is not None and listed > cap:
                    raise CapExceededError(
                        cap, f"enumeration cap of {cap} exceeded by the undirected paths "
                             f"from {start}")
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
    than `cap` simple treks, more than `cap` directed paths into i, more
    than `cap` undirected middles from their sources, or more than `cap`
    paths into j that meet them, so the work done before the error grows
    with the cap, not with the graph.  Raises ValueError for out-of-range
    endpoints.
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
        for (s, t), mids in _undirected_middles(g, paths_i, cap).items():
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

    @classmethod
    def from_factors(cls, factors) -> "Monomial":
        counts = Counter(factors)
        return cls(tuple(sorted(counts.items())))

    def __str__(self):
        if not self.powers:
            return "1"
        parts = []
        for (name, i, j), exp in self.powers:
            s = f"{name}({i},{j})"
            if exp != 1:
                s += f"^{exp}"
            parts.append(s)
        return "*".join(parts)


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


def _disjoint_systems(rows, cols, options, cap: int):
    """Each system joining the rows to distinct columns by options with
    pairwise disjoint tokens, as a tuple of (col, item), one per row.

    Row by row, a row takes a free column, in the order of cols, then one of
    options[(row, col)], a list of (item, tokens).  Each option tried costs
    one unit of `cap` before its tokens are tested; CapExceededError is
    raised once the budget is spent.
    """
    budget = cap

    def extend(chosen, free, used):
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
                    yield from extend(chosen + ((col, item),),
                                      [c for c in free if c != col], used | tokens)

    return extend((), list(cols), frozenset())
