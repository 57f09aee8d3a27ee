"""A simple-trek listing that shares no walk with the library's.

`is_simple_reference` is the predicate that `treks.enumerate_simple_treks`
applied to every candidate before it tested bit masks, copied verbatim
apart from the `_reference` suffix.  `simple_treks_reference` lists every
(left path, middle, right path) triple by its own walks over the graph's
three edge sets, not through `_directed_paths_into`, `_undirected_middles`
or the graph's index lists, and keeps each triple the predicate accepts.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from treksep.treks import MIDDLE_BIDIRECTED, MIDDLE_UNDIRECTED, Trek


def is_simple_reference(t: Trek) -> bool:
    """Segments self-avoiding and overlapping only at the two sources."""
    for seg in (t.left, t.middle, t.right):
        if len(set(seg)) != len(seg):
            return False
    counts = Counter()
    for seg in (t.left, t.middle, t.right):
        counts.update(set(seg))
    allowed = {t.left[0], t.right[0]}
    return all(v in allowed for v, c in counts.items() if c > 1)


def _paths_into(parents, sink) -> dict:
    """Source -> the self-avoiding directed paths from it to sink."""
    out = defaultdict(list)

    def walk(path):
        out[path[0]].append(path)
        for p in parents[path[0]]:
            if p not in path:
                walk((p,) + path)

    walk((sink,))
    return out


def _middles(g) -> list:
    """Every (kind, middle) a trek can have: a vertex, a bidirected edge
    either way round, or a self-avoiding undirected path with >= 1 edge."""
    out = [(None, (v,)) for v in g.vertices]
    for a, b in g.bidirected_edges:
        out += [(MIDDLE_BIDIRECTED, (a, b)), (MIDDLE_BIDIRECTED, (b, a))]
    neighbours = defaultdict(set)
    for a, b in g.undirected_edges:
        neighbours[a].add(b)
        neighbours[b].add(a)

    def walk(path):
        if len(path) > 1:
            out.append((MIDDLE_UNDIRECTED, path))
        for n in neighbours[path[-1]]:
            if n not in path:
                walk(path + (n,))

    for v in g.vertices:
        walk((v,))
    return out


def simple_treks_reference(g, i: int, j: int) -> list:
    """Every simple trek between i and j, in no particular order."""
    parents = defaultdict(list)
    for a, b in g.directed_edges:
        parents[b].append(a)
    lefts, rights = _paths_into(parents, i), _paths_into(parents, j)
    out = []
    for kind, middle in _middles(g):
        for left in lefts[middle[0]]:
            for right in rights[middle[-1]]:
                trek = Trek(left, kind, middle, right)
                if is_simple_reference(trek):
                    out.append(trek)
    return out
