"""The one-pass parser, builder and validator against the ones they replaced.

Every text must give what `graph_reference` gives: the same graph, with
each edge set and each block iterating in the same order (the adjacency of
`treksep.separation` is built in edge-set order), or the same exception
type, message, line number and violation list.  The texts are seeded:
valid DAG, Undirected and Mixed graphs written with shuffled lines, either
orientation, tabs, comments and blank lines, and one 1,000-vertex graph of
the benchmark's large shape; each of these again with one mutation from
`_MUTATIONS`; and hand-made edge sets for `make_graph` and `validate`.
"""

import random
import re
from collections import Counter

import pytest

from graph_reference import (_kahn_reference, make_graph_reference,
                             parse_graph_reference, validate_reference)
from treksep.graph import (DAG, MIXED, UNDIRECTED, InvalidGraphError,
                           MixedGraph, ParseError, _norm_pair, make_graph,
                           parse_graph, topological_order, validate)
from treksep.verify import random_graph

_OPS = {"directed": "->", "undirected": "--", "bidirected": "<->"}


def _outcome(build, *args, **kwargs):
    try:
        g = build(*args, **kwargs)
    except Exception as exc:  # the reference decides which exceptions are right
        return (type(exc), str(exc), getattr(exc, "line_no", None),
                getattr(exc, "violations", None))
    return (g, list(g.directed_edges), list(g.undirected_edges),
            list(g.bidirected_edges), list(g.u_set), list(g.w_set))


def _check_built(got):
    """A graph the library returned is valid, and Kahn's pass orders it as before."""
    g = got[0]
    if isinstance(g, MixedGraph):
        assert validate(g) == [], g
        assert topological_order(g) == _kahn_reference(g), g


def _same_parse(text):
    got = _outcome(parse_graph, text)
    assert got == _outcome(parse_graph_reference, text), text
    _check_built(got)
    return got


def _sep(rng):
    return rng.choice((" ", " ", "  ", "\t", " \t "))


def _lines(g, rng, declared_u=None):
    """g's file lines in a random order, with pairs in either orientation.

    The u lines list declared_u, by default all of U.
    """
    s = _sep(rng)
    lines = []
    for kind, edges in (("directed", g.directed_edges), ("undirected", g.undirected_edges),
                        ("bidirected", g.bidirected_edges)):
        for i, j in edges:
            if kind != "directed" and rng.random() < 0.5:
                i, j = j, i
            lines.append(f"e{s}{i}{s}{_OPS[kind]}{s}{j}")
    if declared_u is None:
        declared_u = g.u_set
    u = rng.sample(sorted(declared_u), len(declared_u))  # on one or two lines
    cut = rng.randint(1, len(u)) if u else 0
    w = rng.sample(sorted(g.w_set), rng.randint(0, len(g.w_set)))  # some of W
    for name, ids in (("u", u[:cut]), ("u", u[cut:]), ("w", w)):
        if ids:
            lines.append(name + s + s.join(map(str, ids)))
    rng.shuffle(lines)
    return [f"v{s}{g.m}"] + lines


def _decorate(lines, rng):
    """Comments, blank lines, indentation and trailing blanks that change nothing."""
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "\t", "# a comment", "  #e 1 -> 2")))
        if rng.random() < 0.1:
            line = rng.choice((" ", "\t")) + line + rng.choice(("", " ", "\t", " # note", "#"))
        out.append(line)
    return out


def _edge_lines(lines):
    return [k for k, line in enumerate(lines) if line.split()[:1] == ["e"]]


def _insert(lines, rng, line, at_least=1):
    k = rng.randint(min(at_least, len(lines)), len(lines))
    return lines[:k] + [line] + lines[k:]


def _duplicate_edge(lines, m, rng):
    edges = _edge_lines(lines)
    if not edges:
        return _insert(lines, rng, f"e 1 -> {m}")
    k = rng.choice(edges)
    _, i, op, j = lines[k].split()
    if op != "->" and rng.random() < 0.5:
        i, j = j, i
    return lines[:k + 1] + _insert(lines[k + 1:], rng, f"e {i} {op} {j}", 0)


def _self_loop(lines, m, rng):
    v = rng.randint(1, m)
    return _insert(lines, rng, f"e {v} {rng.choice(list(_OPS.values()))} {v}")


def _bad_id(lines, m, rng):
    bad = rng.choice(("x", "1.5", "-", "2a", "0", "-3", str(m + 1), str(10**30), "+1", "1_0"))
    edges = _edge_lines(lines)
    if not edges or rng.random() < 0.2:
        return _insert(lines, rng, rng.choice(("u", "w")) + f" 1 {bad}")
    k = rng.choice(edges)
    tokens = lines[k].split()
    tokens[rng.choice((1, 3))] = bad
    return lines[:k] + [" ".join(tokens)] + lines[k + 1:]


def _unknown_word(lines, m, rng):
    edges = _edge_lines(lines)
    if edges and rng.random() < 0.5:
        k = rng.choice(edges)
        tokens = lines[k].split()
        tokens[2] = rng.choice(("=>", "<-", "-", "<>", "->>"))
        return lines[:k] + [" ".join(tokens)] + lines[k + 1:]
    return _insert(lines, rng, rng.choice(("q 1", "V 3", "edge 1 -> 2", "E 1 -> 2")))


def _bad_shape(lines, m, rng):
    return _insert(lines, rng, rng.choice(("e 1 ->", "e 1 -> 2 3", "e", "u", "w", "v",
                                           f"v {m}", "v 3 4")))


def _bad_header(lines, m, rng):
    first = rng.choice(("", "v", "v x", "v 0", "v -2", f"v {10**7}", "v 2 3", "u 1"))
    return ([first] if first else []) + lines[1:]


def _membership_conflict(lines, m, rng):
    v = rng.randint(1, m)
    kind = rng.random()
    if kind < 0.4:
        return _insert(_insert(lines, rng, f"u {v}"), rng, f"w {v}")
    if kind < 0.7 and m > 2:
        a, b, c = rng.sample(range(1, m + 1), 3)
        return _insert(_insert(lines, rng, f"e {a} -- {b}"), rng, f"e {b} <-> {c}")
    a = rng.randint(1, m)
    return _insert(_insert(lines, rng, f"w {a}"), rng, f"u {v}" if v != a else f"e {v} -- {v}")


def _w_into_u(lines, m, rng):
    if m < 2:
        return lines
    a, b = rng.sample(range(1, m + 1), 2)
    return _insert(_insert(_insert(lines, rng, f"w {a}"), rng, f"u {b}"), rng, f"e {a} -> {b}")


def _cycle(lines, m, rng):
    directed = [lines[k].split() for k in _edge_lines(lines) if lines[k].split()[2] == "->"]
    if directed and rng.random() < 0.6:
        _, i, _, j = rng.choice(directed)
        return _insert(lines, rng, f"e {j} -> {i}")
    if m < 3:
        return lines
    a, b, c = rng.sample(range(1, m + 1), 3)
    for line in (f"e {a} -> {b}", f"e {b} -> {c}", f"e {c} -> {a}"):
        lines = _insert(lines, rng, line)
    return lines


def _relabelled(g, rng):
    """g with its ids permuted at random: directed edges no longer run low to high."""
    ids = list(g.vertices)
    rng.shuffle(ids)
    new = dict(zip(g.vertices, ids))

    def pairs(edges, ordered=False):
        return frozenset((new[i], new[j]) if ordered else _norm_pair(new[i], new[j])
                         for i, j in edges)

    return MixedGraph(g.m, frozenset(map(new.get, g.u_set)), frozenset(map(new.get, g.w_set)),
                      pairs(g.directed_edges, ordered=True), pairs(g.undirected_edges),
                      pairs(g.bidirected_edges))


def _u_sinks(g):
    """The U vertices with no child in U: the builder's closure adds the rest of U."""
    return g.u_set - {i for i, j in g.directed_edges if j in g.u_set}


def _same_relabelled_parse(g, rng):
    """Parse a relabelled g, declaring only the sinks of U, as the reference does."""
    h = _relabelled(g, rng)
    got = _same_parse("\n".join(_decorate(_lines(h, rng, _u_sinks(h)), rng)))
    assert got[0] == h
    return h


_MUTATIONS = (_duplicate_edge, _self_loop, _bad_id, _unknown_word, _bad_shape,
              _bad_header, _membership_conflict, _w_into_u, _cycle)


def _large_lines(rng, n=1000, u=400, directed=1800, undirected=600, bidirected=600):
    """The benchmark's large shape: U = 1..u, directed edges from lower to higher ids."""
    def pairs(lo, hi, count):
        chosen = set()
        while len(chosen) < count:
            i, j = rng.randint(lo, hi), rng.randint(lo, hi)
            if i != j:
                chosen.add((min(i, j), max(i, j)))
        return sorted(chosen)

    return ([f"v {n}", "u " + " ".join(map(str, range(1, u + 1)))]
            + [f"e {i} -> {j}" for i, j in pairs(1, n, directed)]
            + [f"e {i} -- {j}" for i, j in pairs(1, u, undirected)]
            + [f"e {i} <-> {j}" for i, j in pairs(u + 1, n, bidirected)])


# One message of each kind the mutations must provoke, numbers (and lists of
# them) and quoted tokens replaced by #.
_REQUIRED_MESSAGES = {
    "line #: duplicate directed edge # -> #", "line #: duplicate undirected edge # -- #",
    "line #: duplicate bidirected edge # <-> #", "directed self-loop at vertex #",
    "undirected self-loop at vertex #", "bidirected self-loop at vertex #",
    "line #: expected a vertex id, got #", "line #: vertex id # out of range [#]",
    "line #: unknown edge kind #", "line #: unknown directive #",
    "line #: first directive must be `v <m>`", "line #: duplicate `v` directive",
    "line #: edge lines look like `e <i> <op> <j>`", "line #: `v` takes exactly one argument",
    "line #: bad vertex count #", "line #: vertex count must be positive, got #",
    "line #: vertex count # exceeds the limit of #",
    "line #: vertices listed under both `u` and `w`: #", "vertex # cannot be in both U and W",
    "undirected edge # -- #: endpoint # is not in U",
    "U->W direction violated: directed edge # -> # points from W into U", "directed cycle: #",
}


def test_texts_parse_as_before():
    for text in ("", "\n\n", "# only a comment\n", " \t\n# v 3\n", "v 3", "v 3 # three\n"):
        _same_parse(text)
    seen, messages = Counter(), set()
    for cls in (DAG, UNDIRECTED, MIXED):
        rng = random.Random(f"parse-differential/{cls}")
        relabel_rng = random.Random(f"parse-differential/relabel/{cls}")
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_graph(cls, n, rng.randrange(10**6), rng.choice((0.2, 0.4, 0.7)))
            lines = _lines(g, rng)
            got = _same_parse("\n".join(_decorate(lines, rng)) + rng.choice(("", "\n", "\r\n")))
            assert got[0] == g
            _same_relabelled_parse(g, relabel_rng)
            for mutate in _MUTATIONS:
                got = _same_parse("\n".join(_decorate(mutate(list(lines), n, rng), rng)))
                seen[got[0] if isinstance(got[0], type) else MixedGraph] += 1
                if isinstance(got[0], type):
                    messages.update(re.sub(r"'[^']*'|-?\d+(,\d+)*", "#", part)
                                    for part in got[1].split("; "))
    assert _REQUIRED_MESSAGES <= messages, _REQUIRED_MESSAGES - messages
    # some mutations leave a valid graph: an extra edge that closes no cycle,
    # u and w lines that agree with the blocks the edges imply
    assert seen[ParseError] >= 1500 and seen[InvalidGraphError] >= 500 and seen[MixedGraph] >= 100


def test_large_texts_parse_as_before():
    rng = random.Random("parse-differential/large")
    lines = _large_lines(rng)
    got = _same_parse("\n".join(lines) + "\n")
    assert got[0].m == 1000 and len(got[1]) == 1800 and len(got[2]) == len(got[3]) == 600
    for mutate in (_duplicate_edge, _self_loop, _bad_id, _cycle, _w_into_u):
        _same_parse("\n".join(mutate(list(lines), 1000, rng)) + "\n")
    h = _same_relabelled_parse(got[0], random.Random("parse-differential/large/relabel"))
    assert any(i > j for i, j in h.directed_edges) and _u_sinks(h) < h.u_set


def test_make_graph_builds_as_before():
    out_of_range = 0
    # the second seed draws edge ids from 0..m+1: about 30% of all cases
    for seed, cases, wide in (("parse-differential/make_graph", 400, False),
                              ("parse-differential/make_graph/ids", 170, True)):
        rng = random.Random(seed)
        for _ in range(cases):
            m = rng.randint(1, 9)
            lo, hi = (0, m + 1) if wide else (1, m)

            def pairs(count):
                return [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)]

            kwargs = dict(directed=pairs(rng.randint(0, 8)), undirected=pairs(rng.randint(0, 3)),
                          bidirected=pairs(rng.randint(0, 3)))
            if rng.random() < 0.3:
                kwargs["u"] = set(rng.sample(range(1, m + 1), rng.randint(0, m)))
            if rng.random() < 0.3:
                kwargs["w"] = set(rng.sample(range(1, m + 1), rng.randint(0, m)))
            got = _outcome(make_graph, m, **kwargs)
            assert got == _outcome(make_graph_reference, m, **kwargs), (m, kwargs)
            _check_built(got)
            out_of_range += got[0] is InvalidGraphError and "out of range" in got[1]
    assert out_of_range >= 100, out_of_range
    assert _outcome(make_graph, 3, directed=[("1", "2")], undirected=[(3, "1")]) \
        == _outcome(make_graph_reference, 3, directed=[("1", "2")], undirected=[(3, "1")])


def test_validate_lists_violations_as_before():
    rng = random.Random("parse-differential/validate")
    kinds = Counter()
    for _ in range(600):
        m = rng.randint(1, 7)

        lo, hi = (0, m + 1) if rng.random() < 0.3 else (1, m)

        def pairs(count):
            return frozenset((rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count))

        def block():
            return frozenset(rng.sample(range(0, m + 2), rng.randint(0, m)))

        u = block()
        w = block() if rng.random() < 0.3 else frozenset(range(1, m + 1)) - u
        g = MixedGraph(m, u, w, pairs(rng.randint(0, 6)),
                       pairs(rng.randint(0, 3)), pairs(rng.randint(0, 3)))
        violations = validate(g)
        assert violations == validate_reference(g), g
        kinds.update(" ".join(v.split()[:2]) for v in violations)
        if not violations:
            assert topological_order(g) == _kahn_reference(g)
    assert set(kinds) == {"U and", "directed self-loop", "directed edge", "undirected self-loop",
                          "undirected edge", "bidirected self-loop", "bidirected edge",
                          "U->W direction", "directed cycle:"}, kinds
