"""In-memory span tracer for the traced benchmark run.

The tracer wraps library functions from outside the library: every module
attribute, tuple entry or class attribute of the `treksep` package that is
bound to a traced function is rebound to a wrapper for the duration of
`installed()`, so imported copies (`separation.bidirected_subdivision`,
`algebra.enumerate_simple_treks`, `verify.ALL_CRITERIA`, the package
re-exports) are traced too.  Each call records one span: name, start, end,
parent span and operation id.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "treksep"


def _resolve(qualname: str):
    """(owner, attribute, object) for 'module.func' or 'module.Class.method'."""
    parts = qualname.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def network_size(g, A, B):
    """Nodes and arcs of the three-layer network for (g, A, B) after subdivision.

    Each vertex has three levels split into in/out nodes (6 nodes, 3 split
    arcs, 2 level links); each directed edge gives a left and a right arc,
    each undirected edge two middle arcs; a bidirected edge becomes a fresh
    vertex with two directed edges.  Plus source, sink and their arcs.
    """
    vertices = g.m + len(g.bidirected_edges)
    directed = len(g.directed_edges) + 2 * len(g.bidirected_edges)
    nodes = 6 * vertices + 2
    arcs = (5 * vertices + 2 * directed + 2 * len(g.undirected_edges)
            + len(set(A)) + len(set(B)))
    return nodes, arcs


class Tracer:
    def __init__(self, names):
        self.names = list(names)
        self.missing = []
        self.op = -1
        self.counters = Counter()
        self.sigma_bits_max = 0
        self.set_sizes = Counter()
        self.queries = 0
        self.repeat_queries = 0
        self.seen_graphs = set()
        self.graph_shape = Counter()
        # one entry per span, in start order
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_op = []
        self._stack = []

    # -- counters recorded at layer boundaries ----------------------------

    def _network_query(self, g, A, B):
        nodes, arcs = network_size(g, A, B)
        self.counters["separation.network_nodes"] += nodes
        self.counters["separation.network_arcs"] += arcs
        self.queries += 1
        key = hash(g)
        if key in self.seen_graphs:
            self.repeat_queries += 1
        else:
            self.seen_graphs.add(key)
            self.graph_shape.update(graphs=1, vertices=g.m,
                                    directed=len(g.directed_edges),
                                    undirected=len(g.undirected_edges),
                                    bidirected=len(g.bidirected_edges))

    def _after_min_t_separator(self, args, kwargs, result):
        g, A, B = _args(args, kwargs, GRAPH_QUERY)
        self._network_query(g, A, B)
        self.counters["separation.augmentations"] += result.rank
        self.set_sizes[("A", len(set(A)))] += 1
        self.set_sizes[("B", len(set(B)))] += 1

    def _after_is_t_separating(self, args, kwargs, result):
        g, A, B = _args(args, kwargs, GRAPH_QUERY)
        self._network_query(g, A, B)

    def _after_enumerate_simple_treks(self, args, kwargs, result):
        self.counters["treks.treks_enumerated"] += len(result)

    def _after_generic_rank_oracle(self, args, kwargs, result):
        A, B, trials = _args(args, kwargs, {"A": 1, "B": 2, "trials": 4},
                             defaults={"trials": 5})
        if A and B:
            self.counters["algebra.trials"] += trials

    def _after_build_covariance(self, args, kwargs, result):
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for row in result.entries for x in row), default=0)
        self.sigma_bits_max = max(self.sigma_bits_max, bits)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, index, fn, after):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function wherever the package binds it."""
        saved = {}

        def rebind(owner, key, new):
            saved.setdefault((owner, key), getattr(owner, key))
            setattr(owner, key, new)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for index, name in enumerate(self.names):
                try:
                    owner, attr, original = _resolve(name)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                hook = getattr(self, "_after_" + attr, None)
                wrapper = self._wrap(index, original, hook)
                if isinstance(owner, type):
                    rebind(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            rebind(module, key, wrapper)
                        elif isinstance(value, tuple) and any(v is original for v in value):
                            rebind(module, key, tuple(wrapper if v is original else v
                                                      for v in value))
            yield self
        finally:
            for (owner, key), value in saved.items():
                setattr(owner, key, value)

    # -- results ----------------------------------------------------------

    def per_name(self):
        """{name: (calls, self seconds, wall seconds)} over all spans.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly (one thread), so children never overlap.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        wall_s = [0.0] * len(self.names)
        for sid in range(n):
            idx = self.span_name[sid]
            duration = self.span_end[sid] - self.span_start[sid]
            calls[idx] += 1
            self_s[idx] += duration - child[sid]
            wall_s[idx] += duration
        return {name: (calls[i], self_s[i], wall_s[i])
                for i, name in enumerate(self.names)}

    def repeat_graph_share(self) -> float:
        return self.repeat_queries / self.queries if self.queries else 0.0

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid in range(len(self.span_name)):
                out.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                          f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t"
                          f"{self.span_parent[sid]}\t{self.span_op[sid]}\n")


GRAPH_QUERY = {"g": 0, "A": 1, "B": 2}


def _args(args, kwargs, positions, defaults=None):
    """Values of positional-or-keyword parameters, given {name: position}."""
    out = []
    for name, pos in positions.items():
        if pos < len(args):
            out.append(args[pos])
        elif name in kwargs:
            out.append(kwargs[name])
        else:
            out.append((defaults or {})[name])
    return out
