"""Workloads of the treksep benchmark: seeded inputs, timed operations, checks.

Every workload is a closed loop with one caller in one process and no
threads: the next operation is issued only after the previous one returns.
The library receives only generated graph text and query sets, except in
verify_gate, where the acceptance criteria generate their own graphs from
one-graph SuiteConfigs whose seeds come from the benchmark seed.  Each
answer is checked outside the timed region; a wrong answer or an exception
counts as a failed operation.  Operations are timed on the process's CPU
clock, and the reference loop is sampled after each one (see reference.py).

The amount of work is fixed by the seed and by `seconds` through the
OPS_PER_SECOND constants below (measured at the commit that introduced the
benchmark), never by a clock, so two commits compared with the same
arguments do exactly the same work.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import reference
import treksep
from treksep import algebra, separation, verify

# Operations per requested second at the commit that defined the benchmark.
OPS_PER_SECOND = {"verify_gate": 7.5, "rank_large": 10.7, "oracle_mid": 6.6}

RANK_LARGE_SHAPE = dict(n=1000, u=400, directed=1800, undirected=600, bidirected=600)
RANK_LARGE_MAX_SET = 12
# Every run cycles through the same vertex counts, so the per-seed mix of
# oracle costs (which grow steeply with n and the U block) stays the same.
ORACLE_MID_SIZES = tuple(range(30, 41))
ORACLE_MID_DENSITY = 0.1
ORACLE_MID_MAX_SET = 8
ORACLE_TRIALS = 5


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(OPS_PER_SECOND[workload] * seconds))


@dataclass(frozen=True)
class GraphSpec:
    """A generated mixed graph: U = 1..u, W = u+1..n, edges by kind."""

    n: int
    u: int
    directed: tuple
    undirected: tuple
    bidirected: tuple

    def text(self) -> str:
        lines = [f"v {self.n}"]
        if self.u:
            lines.append("u " + " ".join(map(str, range(1, self.u + 1))))
        lines += [f"e {i} -> {j}" for i, j in self.directed]
        lines += [f"e {i} -- {j}" for i, j in self.undirected]
        lines += [f"e {i} <-> {j}" for i, j in self.bidirected]
        return "\n".join(lines) + "\n"


def _pairs(rng, lo, hi, count):
    """`count` distinct pairs i < j drawn uniformly from lo..hi."""
    chosen = set()
    while len(chosen) < count:
        i, j = rng.randint(lo, hi), rng.randint(lo, hi)
        if i != j:
            chosen.add((i, j) if i < j else (j, i))
    return tuple(sorted(chosen))


def mixed_graph(rng, n, u, directed, undirected, bidirected) -> GraphSpec:
    """Random valid mixed graph with exact edge counts per kind.

    Directed edges point from lower to higher ids, so the directed part is
    acyclic and, with U the low ids, never points from W into U.
    """
    return GraphSpec(n, u, _pairs(rng, 1, n, directed), _pairs(rng, 1, u, undirected),
                     _pairs(rng, u + 1, n, bidirected))


def _density_counts(n, density):
    """Edge counts per kind that verify.random_graph's Mixed class has on average."""
    u = (n + 1) // 2
    w = n - u
    uu, ww = u * (u - 1) // 2, w * (w - 1) // 2
    return dict(n=n, u=u,
                directed=round(density * (0.5 * uu + 0.6 * ww + u * w)),
                undirected=round(density * 0.5 * uu),
                bidirected=round(density * 0.6 * ww))


@dataclass(frozen=True)
class Query:
    spec: GraphSpec
    text: str
    A: frozenset
    B: frozenset
    oracle_seed: int = 0


def _query(rng, spec, max_set):
    vertices = range(1, spec.n + 1)
    A = frozenset(rng.sample(vertices, rng.randint(1, max_set)))
    B = frozenset(rng.sample(vertices, rng.randint(1, max_set)))
    return Query(spec, spec.text(), A, B, rng.getrandbits(32))


def make_inputs(workload: str, seed: int, seconds: float):
    """The workload's inputs: SuiteConfigs for verify_gate, else Queries."""
    count = op_count(workload, seconds)
    rng = random.Random(f"treksep-bench/{workload}/{seed}")
    if workload == "verify_gate":
        sizes = range(2, verify.SuiteConfig().max_vertices + 1)
        return [verify.SuiteConfig(seed=_suite_seed(rng, sizes[k % len(sizes)]),
                                   graph_count=1)
                for k in range(count)]
    if workload == "rank_large":
        return [_query(rng, mixed_graph(rng, **RANK_LARGE_SHAPE), RANK_LARGE_MAX_SET)
                for _ in range(count)]
    if workload == "oracle_mid":
        return [_query(rng, mixed_graph(rng, **_density_counts(
                    ORACLE_MID_SIZES[k % len(ORACLE_MID_SIZES)], ORACLE_MID_DENSITY)),
                       ORACLE_MID_MAX_SET)
                for k in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def _suite_seed(rng, n: int) -> int:
    """A suite seed drawn from rng whose d-separation graph has n vertices.

    dsep_equivalence is most of a suite's time and its cost grows steeply
    with n, so verify_gate cycles through the sizes, as oracle_mid does.
    This mirrors the first draw of verify._graph_stream.
    """
    while True:
        seed = rng.getrandbits(32)
        if _dsep_size(seed) == n:
            return seed


def _dsep_size(suite_seed: int) -> int:
    return random.Random(f"{suite_seed}/dsep").randint(2, verify.SuiteConfig().max_vertices)


def graph_texts(inputs) -> list:
    """Every graph text the workload hands the library (none for verify_gate)."""
    return [q.text for q in inputs if isinstance(q, Query)]


def trek_separated(spec: GraphSpec, A, B, c_left, c_mid, c_right) -> bool:
    """Does (c_left, c_mid, c_right) block every trek from A to B?

    Written from the definition, sharing no code with the library: a
    search over (vertex, segment) states, segment 0 walking up parents
    (left), 1 along undirected edges (middle), 2 down children (right); a
    state is closed when its vertex is in that segment's set.  A bidirected
    edge i <-> j acts as its subdivision vertex f -> i, f -> j, which is
    never blocked: from (i, left) it reaches (j, right) and (i, right).
    """
    parents = [[] for _ in range(spec.n + 1)]
    children = [[] for _ in range(spec.n + 1)]
    neighbours = [[] for _ in range(spec.n + 1)]
    over_fresh = [[] for _ in range(spec.n + 1)]
    for i, j in spec.directed:
        parents[j].append(i)
        children[i].append(j)
    for i, j in spec.undirected:
        neighbours[i].append(j)
        neighbours[j].append(i)
    for i, j in spec.bidirected:
        over_fresh[i] += [i, j]
        over_fresh[j] += [j, i]
    blocked = (set(c_left), set(c_mid), set(c_right))
    seen = set()
    stack = []

    def visit(v, segment):
        if v not in blocked[segment] and (v, segment) not in seen:
            seen.add((v, segment))
            stack.append((v, segment))

    for a in A:
        visit(a, 0)
    while stack:
        v, segment = stack.pop()
        if segment == 0:
            for p in parents[v]:
                visit(p, 0)
            visit(v, 1)
            for x in over_fresh[v]:
                visit(x, 2)
        elif segment == 1:
            for x in neighbours[v]:
                visit(x, 1)
            visit(v, 2)
        else:
            for c in children[v]:
                visit(c, 2)
    return not any((b, 2) in seen for b in B)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # CPU seconds, one per operation
    reference: list = field(default_factory=list)  # CPU seconds of reference loops
    failures: list = field(default_factory=list)  # the first few, for the log

    def fail(self, detail: dict) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(detail)

    def call(self, fn, *args):
        """Time one operation, then sample the reference loop untimed.

        An exception counts as a failed operation.
        """
        self.attempted += 1
        start, cpu = perf_counter(), process_time()
        try:
            return fn(*args)
        except Exception as exc:  # a crash is a wrong answer
            self.fail({"call": fn.__name__, "error": repr(exc)})
            return None
        finally:
            cpu = process_time() - cpu
            self.wall_s += perf_counter() - start
            self.latencies.append(cpu)
            self.cpu_s += cpu
            reference.sample(self.reference)


class _NoTracer:
    op = -1

    def installed(self):
        return nullcontext(self)


def run(workload: str, inputs, tracer=None) -> Outcome:
    """One pass over the inputs, traced when a Tracer is given."""
    tracer = tracer or _NoTracer()
    return _RUNNERS[workload](inputs, tracer)


def _check_rank(q: Query, res) -> dict | None:
    """None when the rank is the certificate's size and it separates A from B."""
    cert = res.certificate
    members = cert.c_left | cert.c_mid | cert.c_right
    if (res.rank == cert.size() and all(1 <= v <= q.spec.n for v in members)
            and trek_separated(q.spec, q.A, q.B, cert.c_left, cert.c_mid, cert.c_right)):
        return None
    return {"A": sorted(q.A), "B": sorted(q.B), "rank": res.rank,
            "certificate": [sorted(cert.c_left), sorted(cert.c_mid), sorted(cert.c_right)]}


def _run_rank_large(queries, tracer) -> Outcome:
    out = Outcome()
    with tracer.installed():
        for k, q in enumerate(queries):
            tracer.op = k
            g = treksep.parse_graph(q.text)
            res = out.call(separation.min_t_separator, g, q.A, q.B)
            bad = res is not None and _check_rank(q, res)
            if bad:
                out.fail(bad)
    return out


def _run_oracle_mid(queries, tracer) -> Outcome:
    out = Outcome()
    with tracer.installed():
        graphs = [treksep.parse_graph(q.text) for q in queries]
        answers = []
        for k, (q, g) in enumerate(zip(queries, graphs)):
            tracer.op = k
            answers.append(out.call(algebra.generic_rank_oracle, g, q.A, q.B,
                                    q.oracle_seed, ORACLE_TRIALS))
    for q, g, oracle in zip(queries, graphs, answers):
        if oracle is None:
            continue
        try:
            rank = separation.min_t_separator(g, q.A, q.B).rank
        except Exception as exc:  # a crash is a wrong answer
            rank = repr(exc)
        if oracle != rank:
            out.fail({"A": sorted(q.A), "B": sorted(q.B), "oracle_rank": oracle,
                      "rank": rank, "graph": q.text})
    return out


def _check_graph(criteria, cfg) -> list:
    """Every criterion on a one-graph suite; returns the failed checks."""
    return [failure for criterion in criteria for failure in criterion(cfg).failures]


def _run_verify_gate(configs, tracer) -> Outcome:
    """One operation puts one graph per criterion stream through all ten criteria."""
    out = Outcome()
    with tracer.installed():
        criteria = list(verify.ALL_CRITERIA)
        if not any(c.__name__ == "criterion_menger" for c in criteria):
            criteria.append(verify.criterion_menger)
        for k, cfg in enumerate(configs):
            tracer.op = k
            failures = out.call(_check_graph, criteria, cfg)
            if failures:
                out.fail({"suite_seed": cfg.seed, "failures": failures})
    return out


_RUNNERS = {"verify_gate": _run_verify_gate, "rank_large": _run_rank_large,
            "oracle_mid": _run_oracle_mid}


def input_shape(inputs) -> dict:
    """Vertex and edge counts by kind and the |A|, |B| distribution."""
    def histogram(sizes):
        hist = {}
        for size in sorted(sizes):
            hist[str(size)] = hist.get(str(size), 0) + 1
        return hist

    if isinstance(inputs[0], verify.SuiteConfig):
        cfg = inputs[0]
        return {"suites": len(inputs), "graph_count": cfg.graph_count,
                "max_vertices": cfg.max_vertices, "edge_density": cfg.edge_density,
                "trials_per_instance": cfg.trials_per_instance,
                "dsep_graph_vertices": histogram(_dsep_size(c.seed) for c in inputs)}
    specs = [q.spec for q in inputs]

    def spread(values):
        values = sorted(values)
        return {"total": sum(values), "min": values[0],
                "median": values[len(values) // 2], "max": values[-1]}

    return {"graphs": len(specs),
            "vertices": spread([s.n for s in specs]),
            "u_block": spread([s.u for s in specs]),
            "directed_edges": spread([len(s.directed) for s in specs]),
            "undirected_edges": spread([len(s.undirected) for s in specs]),
            "bidirected_edges": spread([len(s.bidirected) for s in specs]),
            "A_sizes": histogram(len(q.A) for q in inputs),
            "B_sizes": histogram(len(q.B) for q in inputs),
            # every graph is generated afresh and queried once
            "separation.repeat_graph_share": 0.0}
