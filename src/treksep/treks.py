"""Simple treks and their trek-rule monomials.

A trek between i and j is a triple (left, middle, right): two directed
paths into i and j plus a middle segment joining their sources.  The middle
is trivial (the shared source), an undirected path, or a single bidirected
edge.  Simple treks have self-avoiding segments that overlap only at the
two sources, which `enumerate_simple_treks` tests with one vertex mask a
segment.  `trek_monomial` writes a trek's term of the trek rule (the
lambdas of its two paths times the phi, or the psis, of its middle) as text.

Trek systems are not listed here.  `separation.min_t_separator` returns a
largest one with its minimum separator, each trek as (vertex, level)
states, and `verify` checks that no (vertex, level) lies on two of them.
Two such treks may cross the same bidirected edge, one from each end, as
its latent top is no vertex of the graph.  `_disjoint_systems` is the
capped backtracking search for the vertex-disjoint path systems of the
path-determinant expansions in `algebra`.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple

from .graph import MixedGraph, _closure, _require_vertices

DEFAULT_CAP = 100_000

MIDDLE_UNDIRECTED = "undirected"
MIDDLE_BIDIRECTED = "bidirected"
_KIND_RANK = {None: 0, MIDDLE_UNDIRECTED: 1, MIDDLE_BIDIRECTED: 2}


class CapExceededError(Exception):
    """Enumeration outgrew its cap; the instance is too large for brute force."""

    def __init__(self, cap: int, message: str = ""):
        self.cap = cap
        super().__init__(message or f"enumeration cap of {cap} exceeded")


class Trek(namedtuple("Trek", "left middle_kind middle right")):
    """One trek; paths are vertex tuples written source -> sink."""

    __slots__ = ()
    left: tuple[int, ...]
    middle_kind: str | None
    middle: tuple[int, ...]
    right: tuple[int, ...]


def _directed_paths_into(g: MixedGraph, sink: int,
                         cap: int | None = None) -> dict[int, list[tuple[int, ...]]]:
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


def _undirected_middles(g: MixedGraph, starts, cap: int | None = None
                        ) -> dict[tuple[int, int], list[tuple[int, ...]]]:
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
    return (t.left[0], t.right[0], _KIND_RANK[t.middle_kind],
            len(t.left), len(t.right), t.left, t.middle, t.right)


def enumerate_simple_treks(g: MixedGraph, i: int, j: int,
                           cap: int = DEFAULT_CAP) -> list[Trek]:
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

    Each left path, middle and closing right path, self-avoiding as built,
    gets one vertex mask, and a pair is kept iff L & (M | R) | M & R has no
    bit but the two sources'.  Bits number the vertices as this call meets
    them: a mask keyed by id would be an int as wide as the largest id.
    """
    _require_vertices(g, (i, j))
    paths_i = _directed_paths_into(g, i, cap)

    bit = {}  # each vertex met -> the next bit of a numbering local to this call

    def mask(path):  # the bits of a self-avoiding path sum to their OR
        return sum(bit.setdefault(v, 1 << len(bit)) for v in path)

    lefts = {s: [(left, mask(left)) for left in paths] for s, paths in paths_i.items()}
    # turns[t]: (kind, segment, left path's source s, mask) of each middle a path from t closes
    turns = defaultdict(list)
    for s in paths_i:
        turns[s].append((None, (s,), s, mask((s,))))
        for t in g._bidirected_lists[s]:
            turns[t].append((MIDDLE_BIDIRECTED, (s, t), s, mask((s, t))))
    if g.undirected_edges:
        for (s, t), mids in _undirected_middles(g, paths_i, cap).items():
            turns[t].extend((MIDDLE_UNDIRECTED, mid, s, mask(mid)) for mid in mids)

    # the vertices below a turn: a path into j can climb to one
    reach = _closure(turns, g._child_lists.__getitem__)

    treks: list[Trek] = []
    closing = 0
    stack = [(j,)] if j in reach else []
    while stack:
        right = stack.pop()
        t = right[0]
        if t in turns:
            r = mask(right)
            for kind, middle, s, m in turns[t]:
                others = ~(bit[s] | bit[t])  # only the sources may lie on two segments
                for left, l in lefts[s]:
                    if not (l & (m | r) | m & r) & others:
                        treks.append(Trek(left, kind, middle, right))
                        if len(treks) > cap:
                            raise CapExceededError(cap)
            closing += 1
            if closing > cap:
                raise CapExceededError(
                    cap, f"enumeration cap of {cap} exceeded by the directed paths into "
                         f"{j} that meet a path into {i}")
        for p in g._parent_lists.get(t, ()):
            if p in reach and p not in right:
                stack.append((p,) + right)

    treks.sort(key=_trek_sort_key)
    return treks


def trek_monomial(t: Trek) -> str:
    """The trek's term of the trek rule, as text such as "lambda(1,3)*phi(1,2)".

    One lambda(a,b) per edge a -> b of the two directed paths; a trivial
    middle adds the top's variance phi(top,top), a bidirected middle the
    covariance phi(s,t) with s < t, and an undirected middle one psi(s,t)
    per edge (normalization by standard deviations is left to the algebraic
    layer).  Factors are written in sorted order, each once, with ^e when
    it occurs e > 1 times; no simple trek repeats a factor.
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
    return "*".join(f"{name}({i},{j})" + (f"^{e}" if e > 1 else "")
                    for (name, i, j), e in sorted(Counter(factors).items())) or "1"


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
