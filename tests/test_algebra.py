import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference
from oracle_reference import (_row_reduce_reference, kept_n_matrix_reference,
                              kept_u_reference, n_matrix_reference)
from treksep import algebra
from treksep.algebra import (RationalMatrix, build_covariance,
                             cauchy_binet_two_ways,
                             generic_rank_oracle, gvl_minor_two_ways,
                             lambda_inverse, sample_parameters,
                             simple_trek_rule_covariance, submatrix_for,
                             translate_subdivision_parameters,
                             trek_rule_covariance,
                             undirected_minor_check)
from treksep.graph import DAG, MIXED, UNDIRECTED, bidirected_subdivision, make_graph
from treksep.instances import choke_graph, spider_graph
from treksep.separation import min_t_separator
from treksep.verify import random_graph


@pytest.mark.parametrize("rows, message", [
    ([[1], [2, 5]], "row 1 has 2 entries, row 0 has 1"),
    ([[1, 2], [3]], "row 1 has 1 entries, row 0 has 2"),
    ([[1, 2], [3, 4], []], "row 2 has 0 entries, row 0 has 2"),
])
def test_from_rows_rejects_ragged_rows(rows, message):
    with pytest.raises(ValueError) as exc:
        RationalMatrix.from_rows(rows)
    assert str(exc.value) == message


def test_rational_matrix_basics():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    assert m.det() == 0
    assert RationalMatrix.zeros(3, 3).rank() == 0
    m2 = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert m2.det() == 1
    inv = m2.inverse()
    assert m2.matmul(inv) == RationalMatrix.identity(2)


def test_sample_parameters_deterministic_and_shaped():
    g = make_graph(2, directed=[(1, 2)])
    p1 = sample_parameters(g, 42)
    p2 = sample_parameters(g, 42)
    assert p1 == p2
    assert p1.lam[(1, 2)] != 0
    assert abs(p1.lam[(1, 2)]) <= 10**6
    assert p1.phi[(1, 1)] > 0 and p1.phi[(2, 2)] > 0
    assert sample_parameters(g, 43) != p1


def test_sample_parameters_diagonal_dominance():
    g = make_graph(2, undirected=[(1, 2)])
    p = sample_parameters(g, 7)
    off = p.k[(1, 2)]
    assert p.k[(1, 1)] > abs(off) and p.k[(2, 2)] > abs(off)
    # positive definite: leading principal minors positive
    assert p.k[(1, 1)] > 0
    assert p.k[(1, 1)] * p.k[(2, 2)] - off * off > 0


def test_build_covariance_single_edge_closed_form():
    g = make_graph(2, directed=[(1, 2)])
    p = sample_parameters(g, 3)
    lam = p.lam[(1, 2)]
    phi1, phi2 = p.phi[(1, 1)], p.phi[(2, 2)]
    sigma = build_covariance(g, p)
    assert sigma.entries == [[phi1, phi1 * lam],
                             [phi1 * lam, phi2 + phi1 * lam ** 2]]


def test_build_covariance_edgeless_is_phi():
    g = make_graph(3)
    p = sample_parameters(g, 5)
    sigma = build_covariance(g, p)
    assert sigma.entries[0][0] == p.phi[(1, 1)]
    assert sigma.entries[0][1] == 0


def test_build_covariance_undirected_is_k_inverse():
    g = make_graph(2, undirected=[(1, 2)])
    p = sample_parameters(g, 11)
    k11, k22, k12 = p.k[(1, 1)], p.k[(2, 2)], p.k[(1, 2)]
    det = k11 * k22 - k12 * k12
    sigma = build_covariance(g, p)
    assert sigma.entries == [[k22 / det, -k12 / det],
                             [-k12 / det, k11 / det]]


def test_lambda_inverse_is_inverse():
    g = choke_graph()
    p = sample_parameters(g, 13)
    n = g.m
    lam = RationalMatrix.identity(n)
    for (i, j), v in p.lam.items():
        lam.entries[i - 1][j - 1] = -v
    assert lam.matmul(lambda_inverse(g, p)) == RationalMatrix.identity(n)


def test_covariance_symmetric_positive_definite():
    for seed in range(3):
        g = random_graph("Mixed", 6, seed, 0.5)
        sigma = build_covariance(g, sample_parameters(g, seed + 100))
        assert all(sigma[i, j] == sigma[j, i] for i in range(g.m) for j in range(i))
        for k in range(1, g.m + 1):
            lead = sigma.submatrix(range(k), range(k))
            assert lead.det() > 0


def test_oracle_on_canonical_instances():
    assert generic_rank_oracle(choke_graph(), {1, 3}, {4, 5}, 1) == 1
    assert generic_rank_oracle(spider_graph(), {1, 2, 3}, {4, 5, 6}, 1) == 2
    g = choke_graph()
    assert generic_rank_oracle(g, set(g.vertices), set(g.vertices), 1) == g.m


def fraction_rank_reference(g, A, B, seed, trials=5):
    """The rank oracle over Q: the whole Sigma from build_covariance, the
    exact rank of its A x B block, the largest over `trials` samples."""
    if not A or not B:
        return 0
    return max(submatrix_for(build_covariance(g, sample_parameters(g, seed + t)),
                             A, B).rank()
               for t in range(trials))


def _small_queries(cls, count, seed):
    rng = random.Random(f"{cls}/{seed}")
    for _ in range(count):
        n = rng.randint(2, 6)
        g = random_graph(cls, n, rng.getrandbits(32), 0.5)
        A = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        B = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        yield g, A, B, rng.getrandbits(32)


@pytest.mark.parametrize("cls", [DAG, UNDIRECTED, MIXED])
def test_oracle_matches_fraction_reference_and_min_cut(cls):
    for g, A, B, seed in _small_queries(cls, 60, 1):
        rank = min_t_separator(g, A, B).rank
        assert generic_rank_oracle(g, A, B, seed) == \
            fraction_rank_reference(g, A, B, seed) == rank, (g, A, B, seed)
        # Sigma is symmetric, so the transposed block has the same rank.
        assert generic_rank_oracle(g, B, A, seed) == rank, (g, A, B, seed)


def test_oracle_same_seed_same_answer(monkeypatch):
    # Mod 5 one trial often falls short, so the answer visibly depends on
    # the seed; it must depend on nothing else.
    monkeypatch.setattr(algebra, "PRIME", 5)
    g = random_graph(MIXED, 8, 5, 0.6)
    A, B = {1, 2, 7}, {3, 6, 8}
    answers = [generic_rank_oracle(g, A, B, seed, trials=1) for seed in range(40)]
    assert len(set(answers)) > 1
    assert answers == [generic_rank_oracle(g, A, B, seed, trials=1)
                       for seed in range(40)]


def singular_k_trials(g, seed, trials):
    """The trials t < `trials` whose K, replayed from the oracle's generator
    seed + t (after Lambda and Phi), is singular mod PRIME, ranked by the
    dense reference elimination."""
    p = algebra.PRIME
    pos = {u: i for i, u in enumerate(sorted(g.u_set))}
    singular = []
    for t in range(trials):
        rng = random.Random(seed + t)
        for _ in range(len(g.directed_edges) + len(g.bidirected_edges) + len(g.w_set)):
            rng.randrange(1, p)
        k = [[0] * len(pos) for _ in pos]
        for i, j in sorted(g.undirected_edges):
            k[pos[i]][pos[j]] = k[pos[j]][pos[i]] = rng.randrange(1, p)
        for i, row in enumerate(k):
            row[i] = rng.randrange(1, p)
        if _row_reduce_reference(k, len(pos)) < len(pos):
            singular.append(t)
    return singular


def test_oracle_small_prime_is_one_sided(monkeypatch):
    # Mod 5, K is often singular and minors often vanish by accident: the
    # oracle must rank N all the same, one numeric pass per trial, and never
    # exceed the min cut.
    monkeypatch.setattr(algebra, "PRIME", 5)
    monkeypatch.setattr(oracle_reference, "PRIME", 5)
    calls = []
    eliminate = algebra._eliminate
    monkeypatch.setattr(algebra, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    singular = 0
    for cls in (UNDIRECTED, MIXED, DAG):
        for g, A, B, seed in _small_queries(cls, 60, 2):
            calls.clear()
            answer = generic_rank_oracle(g, A, B, seed)
            assert answer <= min_t_separator(g, A, B).rank, (g, A, B, seed)
            # Trials stop early only at full rank.
            assert len(calls) == 5 or 0 < len(calls) and answer == min(len(A), len(B))
            singular += bool(singular_k_trials(g, seed, len(calls)))
    assert singular


PINNED_P5 = Path(__file__).parent / "data" / "pinned_oracle_p5.json"


def test_oracle_answers_mod_5_are_pinned(monkeypatch):
    # Mod 5 an answer depends on every draw and on each trial's exact rank;
    # tests/data/make_pinned_oracle_p5.py wrote them with the unplanned oracle.
    monkeypatch.setattr(algebra, "PRIME", 5)
    data = json.loads(PINNED_P5.read_text())
    rows = [dict(zip(data["fields"], row)) for row in data["rows"]]
    assert {row["class"] for row in rows} == {DAG, UNDIRECTED, MIXED}
    mismatches = []
    for row in rows:
        g = random_graph(row["class"], row["n"], row["graph_seed"], row["density"])
        got = [generic_rank_oracle(g, row["A"], row["B"], row["seed"], trials)
               for trials in (1, 5)]
        if got != [row["trials_1"], row["trials_5"]]:
            mismatches.append((row, got))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("p", [5, 7, 11, 2**61 - 1])
def test_draws_are_randrange_draws(p):
    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert algebra._draws(ours, p, 40) == [theirs.randrange(1, p) for _ in range(40)]
        assert ours.getstate() == theirs.getstate()


def test_planned_elimination_falls_back_to_the_exact_rank(monkeypatch):
    # Mod 5 planned pivots often vanish: the rows left are ranked anew, and
    # every trial's rank is the dense reference rank of the same N.
    monkeypatch.setattr(algebra, "PRIME", 5)
    monkeypatch.setattr(oracle_reference, "PRIME", 5)
    plans, ranks = [], []
    plan, eliminate = algebra._plan, algebra._eliminate

    def checked(rows, *args):
        width = 1 + max((k for row in rows for k in row), default=-1)
        dense = [[row.get(k, 0) % 5 for k in range(width)] for row in rows]
        rank = eliminate(rows, *args)
        ranks.append((rank, _row_reduce_reference(dense, width)))
        return rank

    monkeypatch.setattr(algebra, "_plan", lambda patterns: plans.append(1) or plan(patterns))
    monkeypatch.setattr(algebra, "_eliminate", checked)
    calls = 0
    for cls in (UNDIRECTED, MIXED, DAG):
        for g, A, B, seed in _small_queries(cls, 60, 3):
            calls += 1
            generic_rank_oracle(g, A, B, seed)
    assert len(plans) > calls  # one plan per call, and some fallbacks
    assert ranks and all(got == want for got, want in ranks), ranks


def test_planned_pattern_holds_every_nonzero(monkeypatch):
    # The first trial's rows are N's pattern, Phi's bidirected entries
    # included: each trial's N must equal the dense reference restricted to
    # the K blocks that the reference keeps, each of its nonzeros must lie in
    # the pattern that the plan was made from, and each trial's rows must
    # have exactly the first trial's keys, whatever their values.  Mod 5
    # entries vanish by accident often, so a fill that keys only the nonzero
    # entries fails.
    patterns, matrices = [], []
    plan, eliminate = algebra._plan, algebra._eliminate
    monkeypatch.setattr(algebra, "_plan",
                        lambda pattern: patterns.append([set(cols) for cols in pattern])
                        or plan(pattern))
    monkeypatch.setattr(algebra, "_eliminate",
                        lambda rows, *args: matrices.append([dict(row) for row in rows])
                        or eliminate(rows, *args))
    for p in (algebra.PRIME, 5):
        monkeypatch.setattr(algebra, "PRIME", p)
        monkeypatch.setattr(oracle_reference, "PRIME", p)
        rng = random.Random("planned-pattern")
        checked = 0
        while checked < 60:
            n = rng.randint(4, 14)
            g = random_graph(MIXED, n, rng.getrandbits(32), rng.choice((0.3, 0.6)))
            if not g.bidirected_edges:
                continue
            A = rng.sample(range(1, n + 1), rng.randint(1, 4))
            B = rng.sample(range(1, n + 1), rng.randint(1, 4))
            seed = rng.getrandbits(32)
            patterns.clear()
            matrices.clear()
            generic_rank_oracle(g, A, B, seed)
            pattern = patterns[0]  # the others plan the rows left after a zero pivot
            for t, rows in enumerate(matrices):
                assert [set(row) for row in rows] == pattern, (p, g, A, B, seed, t)
                reference = kept_n_matrix_reference(g, A, B, seed + t)
                assert len(rows) == len(reference), (p, g, A, B, seed)
                for r, (row, want) in enumerate(zip(rows, reference)):
                    nonzero = {k: v for k, v in enumerate(want) if v}
                    assert {k: v for k, v in row.items() if v} == nonzero, \
                        (p, g, A, B, seed, t, r)
                    assert nonzero.keys() <= pattern[r], (p, g, A, B, seed, t, r)
            checked += 1


def test_dropped_k_blocks_leave_each_trial_rank_unchanged():
    # The oracle keeps only the K blocks whose component of the undirected
    # graph on U meets both an(A) and an(B).  A dropped block adds its size
    # to rank N and nothing else, so a trial's answer is the rank of the
    # whole reference N, every K block in it, less |U|.  Keeping only the U
    # vertices of an(A) and an(B) would cut the paths of K^{-1} that run
    # through the rest of their components, and changes the answer.
    queries = dropped = 0
    for cls in (UNDIRECTED, MIXED):
        rng = random.Random(f"dropped-blocks/{cls}")
        for _ in range(150):
            n = rng.randint(4, 14)
            g = random_graph(cls, n, rng.getrandbits(32), rng.choice((0.15, 0.3)))
            A = rng.sample(range(1, n + 1), rng.randint(1, 3))
            B = rng.sample(range(1, n + 1), rng.randint(1, 3))
            seed = rng.getrandbits(32)
            width = len(g.u_set)
            want = _row_reduce_reference(n_matrix_reference(g, A, B, seed), width + len(B))
            assert generic_rank_oracle(g, A, B, seed, trials=1) == want - width, \
                (g, A, B, seed)
            queries += 1
            dropped += len(kept_u_reference(g, A, B)) < width
    assert dropped >= 0.3 * queries, (dropped, queries)


def test_oracle_rejects_zero_trials():
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    for trials in (0, -1):
        with pytest.raises(ValueError) as exc:
            generic_rank_oracle(g, {1}, {3}, 0, trials)
        assert str(exc.value) == "trials must be at least 1"


@pytest.mark.parametrize("shape, p", [
    ((1, 1), 5), ((6, 6), 5), ((4, 9), 5), ((9, 4), 5), ((12, 12), 5),
    ((6, 6), algebra.PRIME), ((5, 11), algebra.PRIME), ((11, 5), algebra.PRIME),
    ((20, 20), algebra.PRIME),
])
def test_eliminate_matches_dense_reference(monkeypatch, shape, p):
    monkeypatch.setattr(algebra, "PRIME", p)
    monkeypatch.setattr(oracle_reference, "PRIME", p)
    rows_n, cols_n = shape
    rng = random.Random(f"eliminate/{shape}/{p}")
    ranks = set()
    for density in (0.1, 0.3, 0.7):
        for _ in range(15):
            dense = [[rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(cols_n)] for _ in range(rows_n)]
            if rows_n > 1 and rng.random() < 0.5:  # the last row a multiple of another
                f, j = rng.randrange(p), rng.randrange(rows_n - 1)
                dense[-1] = [f * x % p for x in dense[j]]
            sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
            rank = algebra._eliminate(sparse)
            assert rank == _row_reduce_reference(dense, cols_n), (shape, p, dense)
            ranks.add(rank)
    assert min(shape) in ranks and min(ranks) < min(shape)


ORACLE_RANGE_TABLE = [  # (A, B, message), on the path 1 -> 2 -> 3
    ({0}, {1}, "vertex 0 out of range [1,3]"),
    ({-1}, {1}, "vertex -1 out of range [1,3]"),
    ({1}, {4}, "vertex 4 out of range [1,3]"),
    ({2}, {4, 0}, "vertex 0 out of range [1,3]"),
    (set(), {4}, "vertex 4 out of range [1,3]"),
]


@pytest.mark.parametrize("A, B, message", ORACLE_RANGE_TABLE)
def test_oracle_rejects_vertices_out_of_range(A, B, message):
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    with pytest.raises(ValueError) as exc:
        generic_rank_oracle(g, A, B, 0)
    assert str(exc.value) == message
    if A and B:
        with pytest.raises(ValueError) as sep_exc:
            min_t_separator(g, A, B)
        assert str(sep_exc.value) == message


def test_oracle_empty_side_answers_zero():
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    assert generic_rank_oracle(g, set(), {1, 3}, 0) == 0
    assert generic_rank_oracle(g, {2}, [], 0) == 0


def test_trek_rule_single_edge():
    g = make_graph(2, directed=[(1, 2)])
    p = sample_parameters(g, 17)
    assert trek_rule_covariance(g, p, 1, 2) == p.phi[(1, 1)] * p.lam[(1, 2)]
    assert trek_rule_covariance(g, p, 2, 2) == \
        p.phi[(2, 2)] + p.phi[(1, 1)] * p.lam[(1, 2)] ** 2


def test_trek_rule_no_common_ancestor():
    g = make_graph(3, directed=[(1, 3), (2, 3)])
    p = sample_parameters(g, 19)
    assert trek_rule_covariance(g, p, 1, 2) == 0


def test_trek_rule_rejects_undirected():
    g = make_graph(2, undirected=[(1, 2)])
    with pytest.raises(ValueError, match="undirected"):
        trek_rule_covariance(g, sample_parameters(g, 1), 1, 2)


def test_simple_trek_rule_diagonal():
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    p = sample_parameters(g, 23)
    sigma = build_covariance(g, p)
    assert simple_trek_rule_covariance(g, p, sigma, 1, 3) == \
        sigma.entries[0][0] * p.lam[(1, 2)] * p.lam[(2, 3)]


def test_gvl_identity_and_trivial_case():
    g = choke_graph()
    p = sample_parameters(g, 29)
    assert gvl_minor_two_ways(g, p, {1}, {1}) == (Fraction(1), Fraction(1))
    det_side, path_side = gvl_minor_two_ways(g, p, {1}, {4})
    expected = p.lam[(1, 2)] * p.lam[(2, 4)] + p.lam[(1, 3)] * p.lam[(3, 4)]
    assert det_side == path_side == expected
    assert gvl_minor_two_ways(g, p, {2, 3}, {4, 5})[0] == \
        gvl_minor_two_ways(g, p, {2, 3}, {4, 5})[1]


def test_cauchy_binet_choke():
    g = choke_graph()
    p = sample_parameters(g, 31)
    lhs, rhs = cauchy_binet_two_ways(g, p, {1, 3}, {4, 5})
    assert lhs == rhs == 0  # rank-1 block, every 2x2 minor vanishes
    lhs2, rhs2 = cauchy_binet_two_ways(g, p, {1, 2}, {1, 2})
    assert lhs2 == rhs2 != 0


def test_undirected_minor_check_path_graph():
    g = make_graph(4, undirected=[(1, 2), (2, 3), (3, 4)])
    p = sample_parameters(g, 37)
    minor, verdict = undirected_minor_check(g, p, {1, 2}, {3, 4})
    assert minor == 0 and not verdict
    g3 = make_graph(3, undirected=[(1, 2), (2, 3)])
    p3 = sample_parameters(g3, 37)
    # every path pair from {1,2} to {2,3} meets at 2, so the minor vanishes
    minor3, verdict3 = undirected_minor_check(g3, p3, {1, 2}, {2, 3})
    assert minor3 == 0 and not verdict3
    minor_n, verdict_n = undirected_minor_check(g3, p3, {1}, {3})
    assert minor_n != 0 and verdict_n
    minor_s, verdict_s = undirected_minor_check(g3, p3, {1}, {1})
    assert minor_s > 0 and verdict_s


def test_subdivision_parameter_translation():
    g = make_graph(4, directed=[(1, 3), (2, 4)], bidirected=[(1, 2)])
    g2 = bidirected_subdivision(g)
    p2 = sample_parameters(g2, 41)
    p = translate_subdivision_parameters(g, p2)
    sigma = build_covariance(g, p)
    sigma2 = build_covariance(g2, p2)
    assert sigma.entries == [row[:g.m] for row in sigma2.entries[:g.m]]


dag_cases = st.tuples(st.integers(2, 5), st.integers(0, 10**6))


@settings(max_examples=25, deadline=None)
@given(dag_cases)
def test_trek_rules_match_factorization(case):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    p = sample_parameters(g, seed + 1)
    sigma = build_covariance(g, p)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            entry = sigma.entries[i - 1][j - 1]
            assert trek_rule_covariance(g, p, i, j) == entry
            assert simple_trek_rule_covariance(g, p, sigma, i, j) == entry


@settings(max_examples=25, deadline=None)
@given(dag_cases, st.integers(0, 10**6))
def test_oracle_seed_invariance(case, other_seed):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    A = {1, min(2, n)}
    B = {n, max(1, n - 1)}
    assert generic_rank_oracle(g, A, B, seed) == \
        generic_rank_oracle(g, A, B, other_seed)


_OPTIMIZED_SHAPES = """
import sys
from treksep.algebra import RationalMatrix
print(sys.flags.optimize)
wide = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
for call in (lambda: RationalMatrix.from_rows([[1, 2]]).matmul(
                 RationalMatrix.from_rows([[1], [2], [3]])),
             wide.det, wide.inverse,
             lambda: RationalMatrix.from_rows([[1, 2], [3]]).rank()):
    try:
        print("returned", call())
    except ValueError as exc:
        print("ValueError:", exc)
"""


def test_shape_checks_hold_under_python_O():
    src = str(Path(algebra.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SHAPES],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1",
        "ValueError: cannot multiply a 1x2 matrix by a 3x1 matrix",
        "ValueError: a 2x3 matrix is not square",
        "ValueError: a 2x3 matrix is not square",
        "ValueError: row 1 has 1 entries, row 0 has 2"]


def test_submatrix_for_orders_rows():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    sub = submatrix_for(m, {3, 1}, {2})
    assert sub.entries == [[Fraction(2)], [Fraction(8)]]
