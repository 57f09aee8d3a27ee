"""Randomized cross-checking harness.

Every combinatorial answer (min-cut ranks, separation verdicts, trek
enumeration) is checked against the exact-arithmetic algebraic oracle on
seeded random instances.  Each criterion function is deterministic given
its config and returns a CheckResult; run_suite aggregates them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, partial
from itertools import chain, combinations

from . import algebra, instances, separation
from .graph import (DAG, MIXED, UNDIRECTED, MixedGraph, bidirected_subdivision,
                    make_graph, serialize)

# Smallest max_vertices the criteria can draw from: criterion 7 gives each of
# its mixed graphs a bidirected edge between two W vertices, and
# `random_graph` puts two vertices in W only from n = 4 on.
MIN_VERTICES = 4
# Largest max_vertices: criterion 8 decides about n^7 triples a graph.  On
# `random_graph(DAG, n, 12345, 0.4)` it takes 0.03 s of CPU at n = 10,
# 0.08 s at 12, 0.18-0.19 s at 14 and 0.37-0.38 s at 16, with a peak
# RSS of 31 MiB at 16, most of it the graph's closure caches and one-vertex
# parts (Python 3.11, 2-CPU shared host), so 16 keeps a graph under a
# second.
MAX_VERTICES = 16
# Largest graph_count, and `verify --graphs`: a graph costs about 1.6 ms of
# CPU at the other defaults (`run_suite` on 1,000 graphs took 1.56-1.57 s on
# that host), so the bound keeps such a run to about three minutes
# (`verify --graphs 100000` took 158 s at 16 MiB).
MAX_GRAPHS = 100_000
# Largest graph_count * max_vertices**4: each graph draws its n up to
# max_vertices, and one costs about max_vertices**4 on average (`run_suite`
# on that host, CPU per graph: 1.5 ms at 6, 3.6 ms at 8, 9.0 ms at 10,
# 19 ms at 12, 39 ms at 14, 77 ms at 16; x51 from 6 to 16, where
# (16/6)**4 is 51 and (16/6)**5 is 135).  So the largest run admitted at
# any size takes at most about as long as the largest at 6: the bound
# admits MAX_GRAPHS graphs at 6, 31,640 at 8 and 1,977 at 16, and
# `verify --graphs 1977 --max-vertices 16` took 166 s at 33 MiB, against
# 157 s for `verify --graphs 100000`.
MAX_WORK = MAX_GRAPHS * 6 ** 4
# Largest trials_per_instance, and `rank --trials`: a trial falls short with
# probability at most deg/PRIME, so past a few trials more buy nothing, while
# each costs about 22 us on the choke graph and 0.08 s on a 400-vertex
# undirected graph.  The default suite takes 0.31 s of CPU at 5 trials, 0.32 s
# at 100 and 0.41 s at 1,000 (Python 3.11, 2-CPU host, best of 3), since a
# call stops at the first trial that reaches its bound.
MAX_TRIALS = 1000


def max_graphs(max_vertices: int) -> int:
    """The largest graph_count that MAX_WORK admits at max_vertices."""
    return MAX_WORK // max_vertices ** 4


class SuiteConfig(namedtuple("SuiteConfig", "seed max_vertices graph_count trials_per_instance",
                             defaults=(31415, 6, 200, algebra.DEFAULT_TRIALS))):
    """The suite's shape; each field is checked against its bound here."""

    __slots__ = ()
    seed: int
    max_vertices: int
    graph_count: int
    trials_per_instance: int
    edge_density = 0.4  # of every random graph the criteria draw

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_vertices < MIN_VERTICES:
            raise ValueError(f"max_vertices must be at least {MIN_VERTICES}")
        if self.max_vertices > MAX_VERTICES:
            raise ValueError(f"max_vertices must be at most {MAX_VERTICES}")
        if self.graph_count < 1:
            raise ValueError("graph_count must be at least 1")
        if self.graph_count > MAX_GRAPHS:
            raise ValueError(f"graph_count must be at most {MAX_GRAPHS}")
        most = max_graphs(self.max_vertices)
        if self.graph_count > most:
            raise ValueError(f"graph_count at max_vertices {self.max_vertices} "
                             f"must be at most {most}")
        if self.trials_per_instance < 1:
            raise ValueError("trials_per_instance must be at least 1")
        if self.trials_per_instance > MAX_TRIALS:
            raise ValueError(f"trials_per_instance must be at most {MAX_TRIALS}")
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here: checked too
        return cls(*iterable)


class CheckResult:
    """One criterion's tally: its passes, and each failure with its graph."""

    def __init__(self, name: str):
        self.name = name
        self.passes = 0
        self.failures: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, g: MixedGraph, query: dict):
        if ok:
            self.passes += 1
        else:
            self.failures.append({**query, "graph": serialize(g)})


class SuiteReport(namedtuple("SuiteReport", "checks failures")):
    __slots__ = ()
    checks: dict[str, dict[str, int]]
    failures: list[dict]

    @property
    def total_failures(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {"checks": self.checks, "failures": self.failures}


def random_graph(cls: str, n: int, seed: int, density: float) -> MixedGraph:
    """Seed-deterministic random graph of the requested class, always valid.

    DAG: each pair i < j carries i -> j with the given probability.
    Undirected: each pair carries an undirected edge likewise.
    Mixed: low ids form U, high ids W; pair kinds are drawn from whatever
    the U/W rules allow (cross pairs can only be directed U -> W, W pairs
    may carry a directed and a bidirected edge in parallel).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(seed)
    if cls in (DAG, UNDIRECTED):
        edges = [pair for pair in combinations(range(1, n + 1), 2) if rng.random() < density]
        return make_graph(n, edges) if cls == DAG else make_graph(n, undirected=edges)
    if cls != MIXED:
        raise ValueError(f"unknown graph class {cls!r}")
    directed, undirected, bidirected = [], [], []
    u = set(range(1, (n + 1) // 2 + 1))
    for i, j in combinations(range(1, n + 1), 2):
        if rng.random() >= density:
            continue
        if i in u and j in u:
            (directed if rng.random() < 0.5 else undirected).append((i, j))
        elif i not in u and j not in u:
            roll = rng.random()
            if roll < 0.4:
                directed.append((i, j))
            elif roll < 0.8:
                bidirected.append((i, j))
            else:
                directed.append((i, j))
                bidirected.append((i, j))
        else:
            directed.append((i, j))
    return make_graph(n, directed=directed, undirected=undirected,
                      bidirected=bidirected, u=u)


def _sample_set(rng: random.Random, n: int, max_size: int) -> frozenset:
    return frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(max_size, n))))


def _menger_ok(g: MixedGraph, A, B, res: separation.RankResult) -> bool:
    """The certificate and the trek system of res prove each other minimum.

    Flow value, certificate size, rank and trek count agree, the triple
    t-separates A from B, and the treks run from (a, left), a in A, to
    (b, right), b in B, by `separation._trek_steps` with no (vertex, level)
    used twice; both checks read one step map, made from the graph's edge
    sets, not its index.
    A separating triple blocks each trek at a member of its own, so neither
    a smaller triple nor a larger system exists (Menger).
    """
    cert, steps = res.certificate, separation._trek_steps(g)
    if not (res.flow_value == cert.size() == res.rank == len(res.treks)
            and separation._t_separates(steps, A, B, cert)):
        return False
    states = [state for trek in res.treks for state in trek]
    return len(set(states)) == len(states) and all(
        trek[0][1] == 0 and trek[0][0] in A and trek[-1][1] == 2 and trek[-1][0] in B
        and all(t in steps[s] for s, t in zip(trek, trek[1:]))
        for trek in res.treks)


def cross_check_rank(g: MixedGraph, A, B, seed: int,
                     trials: int = algebra.DEFAULT_TRIALS) -> dict:
    """Min-cut rank vs algebraic oracle, plus Menger duality on the certificate.

    Returns a detail dict with an overall "ok" verdict.  With A and B
    nonempty, "menger_ok" is `_menger_ok`: the triple and the trek system
    of `min_t_separator` prove its value on the graph, with no oracle.
    """
    A, B = frozenset(A), frozenset(B)
    res = separation.min_t_separator(g, A, B) if A and B else None
    rank = res.rank if res else 0
    oracle = algebra.generic_rank_oracle(g, A, B, seed, trials)
    detail = {"A": sorted(A), "B": sorted(B), "rank": rank,
              "oracle_rank": oracle, "seed": seed}
    ok = rank == oracle
    if res is not None:
        menger = _menger_ok(g, A, B, res)
        detail["menger_ok"] = menger
        ok = ok and menger
    detail["ok"] = ok
    return detail


def _graph_stream(cls, cfg: SuiteConfig, count, tag, min_n=2):
    rng = random.Random(f"{cfg.seed}/{tag}")
    for _ in range(count):
        n = rng.randint(min_n, cfg.max_vertices)
        yield random_graph(cls, n, rng.getrandbits(48), cfg.edge_density), rng


def criterion_trek_rule(cfg: SuiteConfig) -> CheckResult:
    """Trek rule == simple trek rule == covariance entry, exactly, on DAGs."""
    out = CheckResult("trek_rule_identity")
    for g, rng in _graph_stream(DAG, cfg, cfg.graph_count, "trek_rule"):
        p = algebra.sample_parameters(g, rng.getrandbits(48))
        sigma = algebra.build_covariance(g, p)
        ok = algebra.trek_rule_covariance(g, p) == sigma and all(
            algebra.simple_trek_rule_covariance(g, p, sigma, i, j) == sigma[i - 1, j - 1]
            for i in range(1, g.m + 1) for j in range(i, g.m + 1))
        out.record(ok, g, {"check": "trek_rule_identity"})
    return out


def criterion_gvl(cfg: SuiteConfig) -> CheckResult:
    """Determinant of a minor of Lambda^{-1} == signed disjoint-path-system sum."""
    out = CheckResult("gvl_identity")
    for g, rng in _graph_stream(DAG, cfg, max(1, cfg.graph_count // 2), "gvl"):
        p = algebra.sample_parameters(g, rng.getrandbits(48))
        size = rng.randint(1, min(3, g.m))
        R = frozenset(rng.sample(range(1, g.m + 1), size))
        S = frozenset(rng.sample(range(1, g.m + 1), size))
        det_side, path_side = algebra.gvl_minor_two_ways(g, p, R, S)
        out.record(det_side == path_side, g,
                   {"check": "gvl_identity", "R": sorted(R), "S": sorted(S)})
    return out


def criterion_cauchy_binet(cfg: SuiteConfig) -> CheckResult:
    """det Sigma_{A,B} == phi_S-weighted sum of paired minors over column sets S."""
    out = CheckResult("cauchy_binet")
    small = min(cfg.max_vertices, 5)
    for g, rng in _graph_stream(DAG, cfg, max(1, cfg.graph_count // 4),
                                "cauchy_binet"):
        if g.m > small:
            g = random_graph(DAG, small, rng.getrandbits(48), cfg.edge_density)
        p = algebra.sample_parameters(g, rng.getrandbits(48))
        size = rng.randint(1, min(3, g.m))
        A = frozenset(rng.sample(range(1, g.m + 1), size))
        B = frozenset(rng.sample(range(1, g.m + 1), size))
        lhs, rhs = algebra.cauchy_binet_two_ways(g, p, A, B)
        out.record(lhs == rhs, g,
                   {"check": "cauchy_binet", "A": sorted(A), "B": sorted(B)})
    return out


def _rank_queries(cfg: SuiteConfig, cls, tag):
    """(g, A, B, oracle seed) of each query of a rank criterion's stream."""
    for g, rng in _graph_stream(cls, cfg, cfg.graph_count, tag):
        A = _sample_set(rng, g.m, 3)
        B = _sample_set(rng, g.m, 3)
        yield g, A, B, rng.getrandbits(48)


def _criterion_rank(cfg: SuiteConfig, cls, name) -> CheckResult:
    out = CheckResult(name)
    for g, A, B, seed in _rank_queries(cfg, cls, name):
        detail = cross_check_rank(g, A, B, seed, cfg.trials_per_instance)
        detail["check"] = name
        out.record(detail.pop("ok"), g, detail)
    return out


def criterion_rank_directed(cfg: SuiteConfig) -> CheckResult:
    return _criterion_rank(cfg, DAG, "rank_directed")


def criterion_rank_undirected(cfg: SuiteConfig) -> CheckResult:
    return _criterion_rank(cfg, UNDIRECTED, "rank_undirected")


def criterion_rank_mixed(cfg: SuiteConfig) -> CheckResult:
    return _criterion_rank(cfg, MIXED, "rank_mixed")


def _force_bidirected(g: MixedGraph) -> MixedGraph:
    if g.bidirected_edges:
        return g
    w = sorted(g.w_set)
    if len(w) < 2:
        raise AssertionError("graph too small to carry a bidirected edge")
    return make_graph(g.m, directed=g.directed_edges,
                      undirected=g.undirected_edges,
                      bidirected=set(g.bidirected_edges) | {(w[0], w[1])},
                      u=g.u_set)


def criterion_subdivision(cfg: SuiteConfig) -> CheckResult:
    """Rank is unchanged by subdividing bidirected edges, both pipelines."""
    out = CheckResult("subdivision_invariance")
    count = max(1, cfg.graph_count // 2)
    for g, rng in _graph_stream(MIXED, cfg, count, "subdivision", min_n=MIN_VERTICES):
        g = _force_bidirected(g)
        g2 = bidirected_subdivision(g)
        A = _sample_set(rng, g.m, 3)
        B = _sample_set(rng, g.m, 3)
        seed = rng.getrandbits(48)
        combinatorial = (separation.generic_rank(g, A, B)
                         == separation.generic_rank(g2, A, B))
        oracle = (algebra.generic_rank_oracle(g, A, B, seed, cfg.trials_per_instance)
                  == algebra.generic_rank_oracle(g2, A, B, seed,
                                                 cfg.trials_per_instance))
        out.record(combinatorial and oracle, g,
                   {"check": "subdivision_invariance", "A": sorted(A),
                    "B": sorted(B), "seed": seed})
    return out


def _dsep_pairs(g: MixedGraph):
    """(A, C, rest, reach, masks, ci_reach) for every (A, C) pair of g, with
    |A| <= 2 and |C| <= 3, that leaves a vertex for B, by A and then C.

    rest is the mask of the vertices outside A + C.  The other three are
    the parts each decider computes from (A, C) alone: Bayes-ball's visited
    set, the partition search's kept masks and the vertices whose right
    out-node the CI search reaches.  The deciders run on one-vertex A
    only, and every one-vertex A comes first.  Each part is a reachability
    from A (the ball's, each partition's upward then downward closure, the
    residual search's from A + C with the |C| trivial treks pushed), and a
    reachability from a set is the union of those from its members, so
    A = {a1, a2} takes, exactly, the OR of the parts of ({a1}, C) and
    ({a2}, C): the visited sets, the CI reaches, and each partition's masks
    before any partition is dropped.  Seeding the public deciders with
    several vertices is checked by the Tier-1 tests, not by criterion 8.
    Every CI search reads the one set of trek-network arcs listed for g in
    this call, and every partition search the two closure caches made for
    g in it, one per direction, each a `functools.cache` of
    `separation._closed_up` keyed (start, blocked).
    """
    arcs = {}  # the arc entries of g, listed as the CI searches read them
    closed = cache(lambda table: cache(partial(separation._closed_up, table)))
    vs = range(1, g.m + 1)
    full = separation._mask(vs)
    single = {}  # (a, c) -> the parts of ({a}, C), every partition kept
    for A in chain(combinations(vs, 1), combinations(vs, 2)):
        rest_a = [v for v in vs if v not in A]
        a = separation._mask(A)
        for C in chain.from_iterable(combinations(rest_a, k) for k in range(4)):
            c = separation._mask(C)
            rest = full ^ a ^ c
            if not rest:
                continue
            if len(A) == 1:
                reach, reaches, ci_reach = single[a, c] = (
                    separation._bayes_ball(g, a, c),
                    separation._partition_reaches(g, a, c, closed),
                    separation._ci_reached(arcs, g, A + C, C))
            else:
                (reach, reaches, ci_reach), (reach2, reaches2, ci_reach2) = (
                    single[1 << v, c] for v in A)
                reach |= reach2
                reaches = [(c_a, x | y) for (c_a, x), (_, y) in zip(reaches, reaches2)]
                ci_reach |= ci_reach2
            yield A, C, rest, reach, separation._partition_masks(reaches), ci_reach


def _pair_verdicts(rest: int, reach: int, masks, ci_reach: int):
    """(B, d, t, ci) for every B of the mask rest with |B| <= 2, as sorted
    tuples, by size and then lexicographically: the per-B tests of one
    (A, C) pair, against its parts from `_dsep_pairs`."""
    vs = [v for v in range(rest.bit_length()) if rest >> v & 1]
    for B in chain(combinations(vs, 1), combinations(vs, 2)):
        b = separation._mask(B)
        yield (B, not reach & b, separation._some_partition_separates(masks, b),
               not ci_reach & b)


def _pair_agrees(rest: int, reach: int, masks, ci_reach: int) -> bool:
    """A sufficient test, on masks, that d == t == ci for every B of rest.

    rest is the mask of the vertices outside A + C, and reach, masks and
    ci_reach the parts of `_dsep_pairs`.  It holds when (a) reach and
    ci_reach agree on rest, (b) every vertex of rest that the ball visits
    lies in every kept mask and (c) some kept mask misses the vertices of
    rest it does not visit.  d and ci of a B are the ANDs of its vertices'
    verdicts, and (a) makes them equal.  A B with a visited vertex is then
    not d-separated, and by (b) meets every mask: not t-separated either.  A
    B with none is d-separated, and by (c) misses a mask: t-separated.
    """
    if (reach ^ ci_reach) & rest:
        return False
    hit = rest & reach
    missed = rest ^ hit
    some = False
    for mask in masks:
        if hit & ~mask:
            return False
        some = some or not missed & mask
    return some


def _first_dsep_failure(g: MixedGraph):
    """The first triple of g, by A, then C, then B, on which the three
    deciders disagree, as criterion 8 records it, or None.

    One walk of `_dsep_pairs`: a pair that passes `_pair_agrees` has no
    disagreement, and a pair that fails it runs its own per-B tests
    (`_pair_verdicts`) in place, so the first disagreement of the walk is
    the first of the graph.
    """
    for A, C, *parts in _dsep_pairs(g):
        if not _pair_agrees(*parts):
            for B, d, t, ci in _pair_verdicts(*parts):
                if not d == t == ci:
                    return {"A": sorted(A), "B": sorted(B), "C": sorted(C),
                            "d_separates": d, "via_t_sep": t, "ci_implied": ci}
    return None


def criterion_dsep_equivalence(cfg: SuiteConfig) -> CheckResult:
    """d-separation == partitioned t-separation == rank-#C test, exhaustively.

    Every disjoint triple of each graph (|A|, |B| <= 2, |C| <= 3) is decided
    three ways, from the parts the public deciders run after their input
    checks, which these DAGs and triples pass by construction.  Each graph
    is one walk of its (A, C) pairs (`_dsep_pairs`), with one set of arcs
    and one closure cache per direction for the graph.  A pair with one
    vertex in A computes its three parts once; a pair with two takes the OR
    of its vertices' parts, which is exact since each part is a
    reachability from A, so the deciders are never seeded with two vertices
    here: the Tier-1 tests check that on the public deciders.  Each pair
    checks all its Bs at once with three mask tests (`_pair_agrees`); a
    pair that fails them runs the exact per-B tests of its own triples, by
    B (`_pair_verdicts`).  The first disagreement, in the order A, then C,
    then B, is recorded with the three verdicts; it replays through the
    public deciders.
    """
    out = CheckResult("dsep_equivalence")
    for g, _ in _graph_stream(DAG, cfg, cfg.graph_count, "dsep"):
        bad = _first_dsep_failure(g)
        out.record(bad is None, g, {"check": "dsep_equivalence", **(bad or {})})
    return out


def criterion_canonical(cfg: SuiteConfig) -> CheckResult:
    """The choke and spider instances behave as advertised, oracle included."""
    out = CheckResult("canonical_instances")

    choke = instances.choke_graph()
    res = separation.min_t_separator(choke, instances.CHOKE_A, instances.CHOKE_B)
    oracle = algebra.generic_rank_oracle(choke, instances.CHOKE_A,
                                         instances.CHOKE_B, cfg.seed,
                                         cfg.trials_per_instance)
    out.record(res.rank == 1 == oracle and res.certificate.c_right == {4}
               and res.certificate.size() == 1,
               choke, {"check": "canonical_choke", "rank": res.rank,
                       "oracle_rank": oracle})

    tetrad = separation.vanishing_tetrad(choke, (1, 3), (4, 5))
    out.record(tetrad == separation.SeparationTriple.of(cr={4}),
               choke, {"check": "canonical_choke_tetrad",
                       "certificate": None if tetrad is None else tetrad.as_dict()})

    spider = instances.spider_graph()
    res = separation.min_t_separator(spider, instances.SPIDER_A, instances.SPIDER_B)
    oracle = algebra.generic_rank_oracle(spider, instances.SPIDER_A,
                                         instances.SPIDER_B, cfg.seed,
                                         cfg.trials_per_instance)
    hub_triple = separation.SeparationTriple.of(cl={7}, cr={7})
    out.record(res.rank == 2 == oracle and res.certificate.size() == 2
               and separation.is_t_separating(spider, instances.SPIDER_A,
                                              instances.SPIDER_B, res.certificate)
               and separation.is_t_separating(spider, instances.SPIDER_A,
                                              instances.SPIDER_B, hub_triple),
               spider, {"check": "canonical_spider", "rank": res.rank,
                        "oracle_rank": oracle})
    return out


def criterion_menger(cfg: SuiteConfig) -> CheckResult:
    """Certificate minimum, with a witness: a separating triple and a trek system of one size.

    Runs the queries of the three rank criteria (`_rank_queries`, same
    seeds), so it covers every instance those criteria see, and checks
    each answer of `min_t_separator` by `_menger_ok`, with no oracle.
    """
    out = CheckResult("menger_duality")
    for cls, tag in ((DAG, "rank_directed"), (UNDIRECTED, "rank_undirected"),
                     (MIXED, "rank_mixed")):
        for g, A, B, _ in _rank_queries(cfg, cls, tag):
            res = separation.min_t_separator(g, A, B)
            out.record(_menger_ok(g, A, B, res), g,
                       {"check": "menger_duality", "A": sorted(A), "B": sorted(B)})
    return out


ALL_CRITERIA = (
    criterion_trek_rule,
    criterion_gvl,
    criterion_cauchy_binet,
    criterion_rank_directed,
    criterion_rank_undirected,
    criterion_rank_mixed,
    criterion_subdivision,
    criterion_dsep_equivalence,
    criterion_canonical,
    criterion_menger,
)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every check, the ten acceptance criteria; deterministic given cfg."""
    checks = {}
    failures = []
    for criterion in ALL_CRITERIA:
        result = criterion(cfg)
        checks[result.name] = {"passes": result.passes,
                               "failures": len(result.failures)}
        failures.extend(result.failures)
    return SuiteReport(checks=checks, failures=failures)
