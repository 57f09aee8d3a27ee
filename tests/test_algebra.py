import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference
from oracle_reference import (_row_reduce_reference, kept_n_matrix_reference,
                              kept_u_reference, n_matrix_reference)
from rational_reference import covariance_reference, rank_reference
from treksep import algebra
from treksep.algebra import (ParamAssignment, RationalMatrix, SingularMatrixError,
                             build_covariance, cauchy_binet_two_ways,
                             generic_rank_oracle, gvl_minor_two_ways,
                             lambda_inverse, sample_parameters,
                             simple_trek_rule_covariance, submatrix_for,
                             translate_subdivision_parameters,
                             trek_rule_covariance,
                             undirected_minor_check)
from treksep.graph import (DAG, MIXED, UNDIRECTED, bidirected_subdivision, graph_class,
                           make_graph)
from treksep.instances import choke_graph, spider_graph
from treksep.separation import min_t_separator
from treksep.verify import random_graph


@pytest.mark.parametrize("rows, message", [
    ([[1], [2, 5]], "row 1 has 2 entries, row 0 has 1"),
    ([[1, 2], [3]], "row 1 has 1 entries, row 0 has 2"),
    ([[1, 2], [3, 4], []], "row 2 has 0 entries, row 0 has 2"),
    # An elimination divides with //, which would floor a rational to a
    # wrong determinant: a matrix holds ints only.
    ([[1, Fraction(1, 2)]], "entry (0, 1) is Fraction(1, 2), not an int"),
    ([[1, 2], [3, 4.0]], "entry (1, 1) is 4.0, not an int"),
    ([[Fraction(3)]], "entry (0, 0) is Fraction(3, 1), not an int"),
    ([[True]], "entry (0, 0) is True, not an int"),
])
def test_from_rows_rejects_ragged_rows(rows, message):
    with pytest.raises(ValueError) as exc:
        RationalMatrix.from_rows(rows)
    assert str(exc.value) == message


def test_products_and_determinants_reject_mismatched_shapes():
    with pytest.raises(ValueError) as exc:
        RationalMatrix.from_rows([[1, 2]]).matmul(RationalMatrix.from_rows([[1], [2], [3]]))
    assert str(exc.value) == "cannot multiply a 1x2 matrix by a 3x1 matrix"
    with pytest.raises(ValueError) as exc:
        RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()
    assert str(exc.value) == "a 2x3 matrix is not square"


def test_rational_matrix_basics():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert m.det() == 0
    assert RationalMatrix.zeros(3, 3).det() == 0
    m2 = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert m2.det() == 1
    adjugate = RationalMatrix.from_rows([[1, -1], [-1, 2]])
    assert m2.matmul(adjugate) == RationalMatrix.identity(2)


def test_a_rational_parameter_raises_instead_of_flooring():
    g = make_graph(2, undirected=[(1, 2)])
    p = sample_parameters(g, 5)
    for bad in (Fraction(1, 3), 0.5):
        with pytest.raises(ValueError, match=r"^entry \(1, 1\) is .*, not an int$"):
            build_covariance(g, p._replace(k={**p.k, (2, 2): bad}))
    dag = make_graph(3, directed=[(1, 2), (2, 3)])
    p = sample_parameters(dag, 5)
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) is Fraction\(1, 2\), not an int$"):
        gvl_minor_two_ways(dag, p._replace(lam={**p.lam, (1, 2): Fraction(1, 2)}), {1}, {2})


def test_singular_k_is_refused():
    g = make_graph(2, undirected=[(1, 2)])
    p = ParamAssignment(lam={}, phi={}, k={(1, 1): 1, (2, 2): 1, (1, 2): 1})
    with pytest.raises(SingularMatrixError) as exc:
        build_covariance(g, p)
    assert str(exc.value) == "K is singular"


def leibniz_det(rows):
    """det as the signed sum over permutations, the sign counted by
    inversions: shares nothing with the elimination."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(x > y for x, y in combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _det_cases():
    """Seeded square int matrices up to 5x5: dense ones, sparse ones (zero
    pivots mid-elimination), ones with a zero leading entry (a swap comes
    first) and singular ones."""
    rng = random.Random("bareiss")
    yield []
    yield [[7]]
    yield [[0, 2], [3, 5]]
    for _ in range(400):
        n = rng.randint(1, 5)
        zeros = rng.choice((0.0, 0.3, 0.6))

        def entry():
            return 0 if rng.random() < zeros else rng.randint(-9, 9)

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        shape = rng.random()
        if shape < 0.25 and n > 1:  # a zero leading entry
            rows[0][0] = 0
        elif shape < 0.5 and n > 1:  # a row the sum of two others (or a copy)
            i, j, k = (rng.randrange(n) for _ in range(3))
            rows[i] = [x + y if j != k else x for x, y in zip(rows[j], rows[k])]
        yield rows


def test_bareiss_det_matches_leibniz():
    kinds = Counter()
    for rows in _det_cases():
        expected = leibniz_det(rows)
        got = RationalMatrix.from_rows(rows).det() if rows else RationalMatrix(0, 0, []).det()
        assert got == expected and type(got) is int, rows
        kinds[expected == 0, bool(rows) and rows[0][0] == 0] += 1
    # singular and not, each with and without a zero leading entry
    assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds


def test_identities_on_int_parameters_return_ints():
    # The acceptance identities on seeded DAGs, and det(K) Sigma with its
    # minors on graphs with U: every value an int.
    rng = random.Random("int-identities")
    for _ in range(30):
        n = rng.randint(2, 6)
        g = random_graph(DAG, n, rng.getrandbits(32), 0.5)
        p = sample_parameters(g, rng.getrandbits(48))
        values = [*p.lam.values(), *p.phi.values()]
        lam_inv = lambda_inverse(g, p)
        sigma = build_covariance(g, p)
        values += [x for m in (lam_inv, sigma, trek_rule_covariance(g, p))
                   for row in m.entries for x in row]
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                values.append(simple_trek_rule_covariance(g, p, sigma, i, j))
        size = rng.randint(1, min(3, n))
        R, S = (rng.sample(range(1, n + 1), size) for _ in range(2))
        values += [*gvl_minor_two_ways(g, p, R, S), *cauchy_binet_two_ways(g, p, R, S)]
        assert all(type(v) is int for v in values), g
    for cls in (UNDIRECTED, MIXED):
        for _ in range(30):
            n = rng.randint(2, 6)
            g = random_graph(cls, n, rng.getrandbits(32), 0.6)
            p = sample_parameters(g, rng.getrandbits(48))
            assert all(type(v) is int for block in (p.lam, p.phi, p.k) for v in block.values())
            assert all(type(x) is int for row in lambda_inverse(g, p).entries for x in row)
            values = [x for row in build_covariance(g, p).entries for x in row]
            if graph_class(g) == UNDIRECTED:
                size = rng.randint(1, min(2, n))
                A, B = (rng.sample(range(1, n + 1), size) for _ in range(2))
                values.append(undirected_minor_check(g, p, A, B)[0])
            elif g.bidirected_edges:
                g2 = bidirected_subdivision(g)
                p2 = translate_subdivision_parameters(g, sample_parameters(g2, 1))
                assert all(type(v) is int for block in (p2.lam, p2.phi, p2.k)
                           for v in block.values())
                values += [x for row in build_covariance(g, p2).entries for x in row]
            assert all(type(v) is int for v in values), g


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
    # det(K) K^{-1}: the adjugate
    assert build_covariance(g, p).entries == [[k22, -k12], [-k12, k11]]


def test_build_covariance_is_det_k_times_the_fraction_covariance():
    # det(K) Sigma, Phi's block scaled too, against Sigma built over Q by
    # inverting Lambda and K; with U empty det K = 1 and it is Sigma itself.
    rng = random.Random("covariance-vs-fractions")
    seen = Counter()
    for cls in (DAG, UNDIRECTED, MIXED):
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_graph(cls, n, rng.getrandbits(32), rng.choice((0.3, 0.5, 0.8)))
            p = sample_parameters(g, rng.getrandbits(48))
            got = build_covariance(g, p).entries
            sigma, det_k = covariance_reference(g, p)
            assert all(type(x) is int for row in got for x in row), g
            assert got == [[det_k * x for x in row] for row in sigma], g
            seen[graph_class(g), bool(g.u_set), bool(g.u_set and g.w_set)] += 1
    assert sum(seen.values()) >= 400
    assert seen[DAG, False, False] and seen[UNDIRECTED, True, True] \
        and seen[MIXED, True, True], seen


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
    """The rank oracle over Q: the whole Sigma from the tests' own
    `covariance_reference`, the exact rank of its A x B block, the largest
    over `trials` samples."""
    if not A or not B:
        return 0
    ranks = []
    for t in range(trials):
        sigma, _ = covariance_reference(g, sample_parameters(g, seed + t))
        ranks.append(rank_reference([[sigma[a - 1][b - 1] for b in sorted(B)]
                                     for a in sorted(A)]))
    return max(ranks)


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
            # Trials stop early only at min(|A|, |B|) or at the first plan's
            # pivot count less |U'|, which no trial can exceed.
            rows, plan = calls[0]
            width = len(rows) - len(A)
            assert len(calls) == 5 or answer == min(len(A), len(B), len(plan) - width), \
                (g, A, B, seed)
            singular += bool(singular_k_trials(g, seed, len(calls)))
    assert singular


def term_rank_reference(pattern):
    """The most nonzero entries of a 0/1 pattern (row r lists its columns)
    in distinct rows and columns: a maximum bipartite matching grown by one
    augmenting path per row (Kuhn)."""
    owner = {}  # column -> the row matched to it

    def augment(r, seen):
        for c in pattern[r]:
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(len(pattern)))


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3)], ids=["4x4", "3x5", "5x3"])
def test_plan_takes_at_least_the_term_rank_in_pivots(shape):
    # The oracle stops once a trial reaches len(plan) - |U'|: that is sound
    # only if no pattern has a term rank above its plan's pivot count.
    rows_n, cols_n = shape
    for bits in range(1 << rows_n * cols_n):
        pattern = [[c for c in range(cols_n) if bits >> (r * cols_n + c) & 1]
                   for r in range(rows_n)]
        assert len(algebra._plan(pattern)) >= term_rank_reference(pattern), pattern


@pytest.mark.parametrize("p", [5, 7, 11, 2**61 - 1])
def test_every_trial_rank_is_within_the_plan_bound(monkeypatch, p):
    # Every trial keys the entries of the first, so no trial ranks N' above
    # the first plan's pivot count, whatever the prime.
    monkeypatch.setattr(algebra, "PRIME", p)
    trials = []
    eliminate = algebra._eliminate

    def recorded(rows, plan):
        size = len(rows)
        rank = eliminate(rows, plan)
        trials.append((size, plan, rank))
        return rank

    monkeypatch.setattr(algebra, "_eliminate", recorded)
    below = 0
    for cls in (DAG, UNDIRECTED, MIXED):
        for g, A, B, seed in _small_queries(cls, 60, 4):
            trials.clear()
            generic_rank_oracle(g, A, B, seed)
            size, first, _ = trials[0]
            width = size - len(A)
            below += len(first) - width < min(len(A), len(B))
            for _, plan, rank in trials:
                assert plan is first, (g, A, B, seed)
                assert rank - width <= len(plan) - width, (g, A, B, seed)
    assert below  # the bound is below min(|A|, |B|) on some queries


def test_oracle_stops_at_the_plan_bound(monkeypatch):
    # Sigma_{A,B} has one nonzero entry, sigma_13, so N' has one keyed entry
    # and the plan one pivot: the first trial reaches the bound and is the
    # only one, though min(|A|, |B|) is 2.
    calls = []
    eliminate = algebra._eliminate
    monkeypatch.setattr(algebra, "_eliminate", lambda *args: calls.append(1) or eliminate(*args))
    g = make_graph(4, directed=[(1, 3)])
    for seed in range(20):
        calls.clear()
        assert generic_rank_oracle(g, {1, 2}, {3, 4}, seed) == 1
        assert len(calls) == 1, seed


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


@pytest.mark.parametrize("trials", [2.5, "3", None])
def test_oracle_rejects_a_count_of_trials_that_is_not_an_integer(trials):
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    with pytest.raises(ValueError) as exc:
        generic_rank_oracle(g, {1}, {3}, 0, trials)
    assert str(exc.value) == f"trials must be an integer, got {trials!r}"


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
    sigma = trek_rule_covariance(g, p)
    assert sigma[0, 1] == p.phi[(1, 1)] * p.lam[(1, 2)]
    assert sigma[1, 1] == p.phi[(2, 2)] + p.phi[(1, 1)] * p.lam[(1, 2)] ** 2


def test_trek_rule_no_common_ancestor():
    g = make_graph(3, directed=[(1, 3), (2, 3)])
    p = sample_parameters(g, 19)
    assert trek_rule_covariance(g, p)[0, 1] == 0


def test_trek_rule_rejects_undirected():
    g = make_graph(2, undirected=[(1, 2)])
    with pytest.raises(ValueError, match="undirected"):
        trek_rule_covariance(g, sample_parameters(g, 1))


def test_trek_rule_rejects_a_declared_u_vertex():
    # graph_class reads only the edges, so this is a DAG; but its U is {1},
    # and a sum over Phi alone would give 0 where det(K) Sigma_11 is 1.
    g = make_graph(2, directed=[(1, 2)], u=[1])
    p = sample_parameters(g, 1)
    assert graph_class(g) == DAG and build_covariance(g, p)[0, 0] == 1
    with pytest.raises(ValueError, match="undirected"):
        trek_rule_covariance(g, p)


def test_cauchy_binet_rejects_a_declared_u_vertex():
    # a DAG by its edges, with U = {1}: K has no place in the phi_S expansion
    g = make_graph(3, directed=[(1, 2), (2, 3)], u=[1])
    assert graph_class(g) == DAG
    with pytest.raises(ValueError, match="no U vertex"):
        cauchy_binet_two_ways(g, sample_parameters(g, 1), {1}, {3})


def test_simple_trek_rule_diagonal():
    g = make_graph(3, directed=[(1, 2), (2, 3)])
    p = sample_parameters(g, 23)
    sigma = build_covariance(g, p)
    assert simple_trek_rule_covariance(g, p, sigma, 1, 3) == \
        sigma.entries[0][0] * p.lam[(1, 2)] * p.lam[(2, 3)]


def test_gvl_identity_and_trivial_case():
    g = choke_graph()
    p = sample_parameters(g, 29)
    assert gvl_minor_two_ways(g, p, {1}, {1}) == (1, 1)
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


@pytest.mark.parametrize("identity, g", [
    (gvl_minor_two_ways, choke_graph()),
    (cauchy_binet_two_ways, choke_graph()),
    (undirected_minor_check, make_graph(3, undirected=[(1, 2), (2, 3)])),
], ids=["gvl", "cauchy_binet", "undirected_minor"])
def test_minor_identities_reject_vertices_out_of_range(identity, g):
    # submatrix_for reads vertex v as row v - 1: vertex 0 would be read as
    # vertex m, and vertex m + 1 would index past the matrix
    p = sample_parameters(g, 1)
    for bad in (0, g.m + 1):
        with pytest.raises(ValueError) as exc:
            identity(g, p, {bad}, {1})
        assert str(exc.value) == f"vertex {bad} out of range [1,{g.m}]"


@pytest.mark.parametrize("identity, g, message", [
    (gvl_minor_two_ways, choke_graph(), "R and S must have equal size"),
    (cauchy_binet_two_ways, choke_graph(), "A and B must have equal size"),
    (undirected_minor_check, make_graph(3, undirected=[(1, 2), (2, 3)]),
     "A and B must have equal size"),
], ids=["gvl", "cauchy_binet", "undirected_minor"])
def test_minor_identities_reject_sets_of_unequal_size(identity, g, message):
    p = sample_parameters(g, 1)
    with pytest.raises(ValueError) as exc:
        identity(g, p, {1}, {2, 3})
    assert str(exc.value) == message


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
    assert trek_rule_covariance(g, p) == sigma
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert simple_trek_rule_covariance(g, p, sigma, i, j) == sigma[i - 1, j - 1]


def test_trek_rule_is_the_covariance_with_bidirected_tops(monkeypatch):
    # DAGs, and graphs with directed and bidirected edges and no U vertex,
    # numbered in a random topological order: a bidirected top (s, t) adds
    # its term both ways round, and each vertex's paths are listed once.
    listed = []
    listing = algebra._directed_paths_into
    monkeypatch.setattr(algebra, "_directed_paths_into",
                        lambda g, v: listed.append(v) or listing(g, v))
    rng = random.Random("trek-rule-bidirected")
    kinds = Counter()
    for k in range(300):
        n = rng.randint(2, 7)
        order = rng.sample(range(1, n + 1), n)
        directed = [e for e in combinations(order, 2) if rng.random() < 0.4]
        bidirected = [e for e in combinations(order, 2) if k % 3 and rng.random() < 0.4]
        g = make_graph(n, directed=directed, bidirected=bidirected)
        p = sample_parameters(g, rng.getrandbits(48))
        listed.clear()
        assert trek_rule_covariance(g, p) == build_covariance(g, p), (n, directed, bidirected)
        assert sorted(listed) == list(range(1, n + 1))
        kinds[graph_class(g), bool(set(directed) & set(bidirected))] += 1
    assert kinds[DAG, False] >= 100 and kinds[MIXED, True] >= 100, kinds


@settings(max_examples=25, deadline=None)
@given(dag_cases, st.integers(0, 10**6))
def test_oracle_seed_invariance(case, other_seed):
    n, seed = case
    g = random_graph(DAG, n, seed, 0.5)
    A = {1, min(2, n)}
    B = {n, max(1, n - 1)}
    assert generic_rank_oracle(g, A, B, seed) == \
        generic_rank_oracle(g, A, B, other_seed)


def test_submatrix_for_orders_rows():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    sub = submatrix_for(m, {3, 1}, {2})
    assert sub.entries == [[2], [8]]
