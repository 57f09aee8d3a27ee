"""The F_p rank oracle as it stood before its sparse rewrite.

`generic_rank_oracle`, `_lambda_inverse_column`, `_solve_k` and
`_row_reduce` as they stood when every column of Lambda^{-1} swept all m
vertices and K was solved by dense Gauss-Jordan on [K | rhs], copied
verbatim apart from the `_reference` suffix, so that the differential tests
compare the library's oracle against code it shares nothing with but the
graph helpers.  `n_matrix_reference` builds the matrix N that the oracle
ranks in each trial, densely and from these helpers, so that the tests can
check the oracle's N and its planned pattern entry by entry.  `PRIME` is
this module's own name: a test that changes the prime changes it here and
in `treksep.algebra` alike.
"""

from __future__ import annotations

import random
from typing import List

from treksep.algebra import PRIME
from treksep.graph import MixedGraph, topological_order


def generic_rank_oracle_reference(g: MixedGraph, A, B, seed: int, trials: int = 5) -> int:
    """Generic rank of Sigma_{A,B}: the largest rank mod PRIME over `trials`
    models whose parameters are drawn uniformly from 1..PRIME-1.

    Only the block is built: the columns of Lambda^{-1} for A and B, the
    inner matrix K^{-1} (+) Phi applied to the B columns (K is solved mod
    PRIME, never inverted), and Sigma_{A,B} = X_A^T (M X_B).  A minor that
    vanishes identically over Q vanishes mod PRIME, so no trial exceeds the
    generic rank, and by Schwartz-Zippel a trial falls short with
    probability at most deg/PRIME.  Trials stop once the rank is
    min(|A|, |B|), which no trial can exceed.
    """
    p = PRIME
    As, Bs = sorted(set(A)), sorted(set(B))
    full = min(len(As), len(Bs))
    reverse_order = topological_order(g)[::-1]
    u_vs = sorted(g.u_set)
    best = 0
    for t in range(trials):
        if best == full:
            break
        rng = random.Random(seed + t)
        lam = {e: rng.randrange(1, p) for e in sorted(g.directed_edges)}
        phi = {e: rng.randrange(1, p) for e in sorted(g.bidirected_edges)}
        phi.update({(w, w): rng.randrange(1, p) for w in sorted(g.w_set)})
        x = {v: _lambda_inverse_column_reference(g, reverse_order, lam, v)
             for v in sorted(set(As) | set(Bs))}
        y = {b: [0] * (g.m + 1) for b in Bs}
        for b in Bs:
            for (i, j), val in phi.items():
                y[b][i] += val * x[b][j]
                if i != j:
                    y[b][j] += val * x[b][i]
        if u_vs:
            solution = _solve_k_reference(g, rng, u_vs, [[x[b][u] for b in Bs] for u in u_vs])
            for u, row in zip(u_vs, solution):
                for b, val in zip(Bs, row):
                    y[b][u] = val
        sigma = [[sum(xa * yb for xa, yb in zip(x[a], y[b])) % p for b in Bs]
                 for a in As]
        best = max(best, _row_reduce_reference(sigma, len(Bs)))
    return best


def n_matrix_reference(g: MixedGraph, A, B, seed: int) -> List[List[int]]:
    """N = [[K, X_{U,B}], [-X_{U,A}^T, X_{W,A}^T Phi X_{W,B}]] mod PRIME, dense,
    for the parameters drawn from random.Random(seed): rows U then sorted A,
    columns U then sorted B, U in increasing order.  Its rank is |U| plus the
    rank of Sigma_{A,B} whenever K is nonsingular mod PRIME."""
    p = PRIME
    As, Bs = sorted(set(A)), sorted(set(B))
    rng = random.Random(seed)
    lam = {e: rng.randrange(1, p) for e in sorted(g.directed_edges)}
    phi = {e: rng.randrange(1, p) for e in sorted(g.bidirected_edges)}
    phi.update({(w, w): rng.randrange(1, p) for w in sorted(g.w_set)})
    reverse_order = topological_order(g)[::-1]
    x = {v: _lambda_inverse_column_reference(g, reverse_order, lam, v)
         for v in sorted(set(As) | set(Bs))}
    u_vs = sorted(g.u_set)
    width = len(u_vs)
    rows = [[0] * (width + len(Bs)) for _ in range(width + len(As))]
    for i, j in sorted(g.undirected_edges):
        rows[u_vs.index(i)][u_vs.index(j)] = rows[u_vs.index(j)][u_vs.index(i)] = \
            rng.randrange(1, p)
    for i in range(width):
        rows[i][i] = rng.randrange(1, p)
    for k, b in enumerate(Bs):
        y = [0] * (g.m + 1)  # column b of Phi X
        for (i, j), val in phi.items():
            y[i] += val * x[b][j]
            if i != j:
                y[j] += val * x[b][i]
        for r, a in enumerate(As, width):
            rows[r][width + k] = sum(xa * yb for xa, yb in zip(x[a], y)) % p
        for i, u in enumerate(u_vs):
            rows[i][width + k] = x[b][u]
    for r, a in enumerate(As, width):
        for i, u in enumerate(u_vs):
            rows[r][i] = -x[a][u] % p
    return rows


def _lambda_inverse_column_reference(g: MixedGraph, reverse_order, lam, a: int) -> List[int]:
    """Column a of Lambda^{-1} mod PRIME, indexed by vertex id: entry i sums
    the weights of the directed paths from i to a."""
    children = {}
    for i, j in g.directed_edges:
        children.setdefault(i, []).append(j)
    x = [0] * (g.m + 1)
    x[a] = 1
    for i in reverse_order:
        if i in children:
            x[i] = (x[i] + sum(lam[(i, c)] * x[c] for c in children[i])) % PRIME
    return x


def _solve_k_reference(g: MixedGraph, rng: random.Random, u_vs, rhs) -> List[List[int]]:
    """K^{-1} rhs mod PRIME for K drawn from rng on the undirected part.

    A K that is singular mod PRIME is drawn again from the same generator,
    so the result depends on the generator's state alone.
    """
    pos = {u: i for i, u in enumerate(u_vs)}
    size = len(u_vs)
    while True:
        rows = [[0] * size + row for row in rhs]
        for i, j in sorted(g.undirected_edges):
            rows[pos[i]][pos[j]] = rows[pos[j]][pos[i]] = rng.randrange(1, PRIME)
        for i in range(size):
            rows[i][i] = rng.randrange(1, PRIME)
        if _row_reduce_reference(rows, size) == size:
            return [row[size:] for row in rows]


def _row_reduce_reference(rows, width: int) -> int:
    """Gauss-Jordan mod PRIME on the first `width` columns, in place; returns
    the rank.  Entries must already be reduced mod PRIME."""
    p = PRIME
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # Left of col the pivot row is zero, so only its tail is touched.
        inv = pow(rows[rank][col], -1, p)
        tail = [x * inv % p for x in rows[rank][col:]]
        rows[rank][col:] = tail
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], tail)]
        rank += 1
    return rank
